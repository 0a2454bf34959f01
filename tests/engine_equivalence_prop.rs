//! Property test: the rewriting and materialization certain-answer engines
//! agree on random DL-Lite OBDM systems and random UCQs.
//!
//! This is the strongest correctness guard on the PerfectRef + unfolding
//! pipeline: any soundness or completeness bug in either engine shows up
//! as a divergence on some random instance.

use obx_datagen::random_scenario::{random_query, random_system};
use obx_datagen::RandomParams;
use obx_obdm::ChaseConfig;
use obx_srcdb::View;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case runs several queries over a fresh system
    })]

    #[test]
    fn engines_agree(seed in 0u64..5000, incl in 0.0f64..0.9, atoms in 1usize..4) {
        let params = RandomParams {
            seed,
            incl_prob: incl,
            n_individuals: 18,
            n_concept_facts: 25,
            n_role_facts: 30,
            n_concepts: 5,
            n_roles: 3,
            ..RandomParams::default()
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let system = random_system(params, &mut rng);
        for _ in 0..3 {
            let q = random_query(&system, &mut rng, atoms);
            let Ok(rewriting) = system.certain_answers(&q) else {
                continue; // budget exhaustion is not a disagreement
            };
            let materialized = system.certain_answers_materialized(
                &q,
                View::full(system.db()),
                ChaseConfig::for_ucq(&q),
            );
            prop_assert_eq!(
                &rewriting,
                &materialized,
                "engines disagree on seed {} query {:?}",
                seed,
                q
            );
        }
    }

    /// Certain answers are monotone in the data (the key property behind
    /// Proposition 3.5): a query's answers over a masked view are a subset
    /// of its answers over the full database.
    #[test]
    fn certain_answers_monotone_in_view(seed in 0u64..5000) {
        let params = RandomParams {
            seed,
            n_individuals: 15,
            n_concept_facts: 20,
            n_role_facts: 25,
            ..RandomParams::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let system = random_system(params, &mut rng);
        let q = random_query(&system, &mut rng, 2);
        let Ok(compiled) = system.spec().compile(&q) else {
            return Ok(());
        };
        // Mask = the border of some individual.
        let ind = system.db().consts().get("ind0").expect("individual");
        let border = obx_srcdb::border(system.db(), &[ind], 1);
        let restricted = compiled.answers(View::masked(system.db(), &border));
        let full = compiled.answers(View::full(system.db()));
        prop_assert!(restricted.is_subset(&full));
    }
}
