//! A deadline or a cancellation stops a blown-up compile.
//!
//! On the skewed scenario with ten registrar kinds, `registered` has
//! eleven source definitions (`REG` and `RK0`…`RK9` under `rk_i ⊑
//! registered`), so a four-atom `registered` chain unfolds to 11⁴ =
//! 14,641 source disjuncts, and minimizing them tests every pair for
//! containment: tens of seconds of work even in a release build. The
//! saturated compile polls the interrupt per emitted disjunct and per
//! disjunct of the minimization, so a cancellation ends it promptly with
//! the transient `RewriteError::Interrupted`.

use obx_datagen::{skewed_scenario, SkewedParams};
use obx_obdm::ObdmError;
use obx_query::RewriteError;
use obx_util::Interrupt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn a_cancelled_blown_up_compile_returns_interrupted_promptly() {
    let mut scenario = skewed_scenario(SkewedParams {
        n_registrar_kinds: 10,
        ..SkewedParams::default()
    });
    let chain = scenario
        .system
        .parse_cq(
            "q(x) :- registered(x, y1), registered(y1, y2), registered(y2, y3), \
             registered(y3, y4)",
        )
        .unwrap();
    let spec = scenario.system.spec();
    assert!(spec.saturated_mapping().is_some(), "saturated route");
    let flag = Arc::new(AtomicBool::new(false));
    let interrupt = Interrupt::none().with_flag(Arc::clone(&flag));
    let start = Instant::now();
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(50));
            flag.store(true, Ordering::Relaxed);
        });
        spec.compile_cq_interruptible(&chain, &interrupt)
    });
    let elapsed = start.elapsed();
    match result {
        Err(e @ ObdmError::Rewrite(RewriteError::Interrupted)) => assert!(e.is_transient()),
        other => panic!("expected an interrupted compile, got {other:?}"),
    }
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}
