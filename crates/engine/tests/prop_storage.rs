//! Differential property tests for the on-disk columnar archive.
//!
//! On random workloads (graph node-DP/edge-DP, FK-chain and predicate-heavy
//! typed schemas, with predicates, SUM weights, projections, and group-by),
//! executing over a **memory-mapped archive** of the instance must produce
//! profiles bit-identical to the heap-backed run — flat, grouped, and on
//! the WCOJ path, under worker counts 1 and 3, with partition streaming
//! forced down to tiny blocks, and at both runtime obs levels (`Off` and `Full`;
//! telemetry must never perturb an equality — the compiled-out obs state is
//! covered by CI running this suite without `--features obs`).
//!
//! The same bar holds for the **in-memory image**
//! ([`Archive::from_instance`]: one interner, heap columns), across the same
//! worker counts, stream blocks and obs levels.
//!
//! Corruption coverage: truncating an archive at any point, flipping any
//! byte, or handing `open` a non-archive file must return a clean
//! [`r2t_engine::EngineError`] — never UB, never a panic.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use r2t_engine::exec::{
    profile_grouped_with_stats_src, profile_with_stats_src, ExecOptions, Source,
    Strategy as ExecStrategy,
};
use r2t_engine::storage::write_archive;
use r2t_engine::{Archive, Instance, Schema};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod prop_common;
use prop_common::{arb_workload, forced_parallel};

/// A unique temp path per case (cases run concurrently in one process).
fn temp_archive() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("r2t_prop_{}_{n}.r2t", std::process::id()))
}

/// Writes `inst` to a fresh archive and reopens it, handing the mapped
/// archive to `f`; the file is removed afterwards even if `f` fails.
fn with_archive<T>(
    schema: &Schema,
    inst: &Instance,
    f: impl FnOnce(&Archive) -> T,
) -> Result<T, TestCaseError> {
    let path = temp_archive();
    write_archive(schema, inst, &path).expect("write archive");
    let archive = Archive::open(schema, &path);
    let out = archive.map(|a| f(&a));
    std::fs::remove_file(&path).expect("remove archive");
    match out {
        Ok(t) => Ok(t),
        Err(e) => Err(TestCaseError::Fail(format!("open archive: {e}"))),
    }
}

/// The option matrix one mmap/heap comparison sweeps: workers 1 and 3, and
/// streaming forced to 2-row partitions (any nontrivial seed splits).
fn option_matrix(strategy: ExecStrategy) -> Vec<ExecOptions> {
    let mut m = Vec::new();
    for workers in [1usize, 3] {
        for stream_block in [None, Some(2)] {
            m.push(ExecOptions { strategy, stream_block, ..forced_parallel(workers) });
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flat profiles: mmap-backed == heap-backed == the sequential,
    /// unstreamed heap run for every worker count and stream block, at
    /// runtime obs levels Off and Full.
    #[test]
    fn mmap_flat_matches_heap(w in arb_workload()) {
        let (plain, _) = profile_with_stats_src(
            &w.schema, Source::Rows(&w.inst), &w.query, &forced_parallel(1),
        ).expect("plain heap profile");
        for level in [r2t_obs::Level::Off, r2t_obs::Level::Full] {
            r2t_obs::set_level(level);
            for opts in option_matrix(ExecStrategy::Auto) {
                let (heap, _) = profile_with_stats_src(
                    &w.schema, Source::Rows(&w.inst), &w.query, &opts,
                ).expect("heap profile");
                prop_assert_eq!(&heap, &plain);
                let mapped = with_archive(&w.schema, &w.inst, |a| {
                    profile_with_stats_src(&w.schema, Source::Archive(a), &w.query, &opts)
                        .expect("mapped profile").0
                })?;
                prop_assert_eq!(&mapped, &heap);
            }
        }
    }

    /// Grouped profiles: mmap-backed == heap-backed (keys and per-group
    /// profiles), same matrix.
    #[test]
    fn mmap_grouped_matches_heap(w in arb_workload()) {
        prop_assume!(!w.group_vars.is_empty());
        for opts in option_matrix(ExecStrategy::Auto) {
            let (heap, _) = profile_grouped_with_stats_src(
                &w.schema, Source::Rows(&w.inst), &w.query, &w.group_vars, &opts,
            ).expect("heap grouped");
            let mapped = with_archive(&w.schema, &w.inst, |a| {
                profile_grouped_with_stats_src(
                    &w.schema, Source::Archive(a), &w.query, &w.group_vars, &opts,
                ).expect("mapped grouped").0
            })?;
            prop_assert_eq!(&mapped, &heap);
        }
    }

    /// The WCOJ executor over mapped columns == over heap columns, even on
    /// shapes the auto-dispatcher would route to the columnar pipeline.
    #[test]
    fn mmap_wcoj_matches_heap(w in arb_workload()) {
        for opts in option_matrix(ExecStrategy::Wcoj) {
            let (heap, _) = profile_with_stats_src(
                &w.schema, Source::Rows(&w.inst), &w.query, &opts,
            ).expect("heap wcoj");
            let mapped = with_archive(&w.schema, &w.inst, |a| {
                profile_with_stats_src(&w.schema, Source::Archive(a), &w.query, &opts)
                    .expect("mapped wcoj").0
            })?;
            prop_assert_eq!(&mapped, &heap);
        }
    }

    /// Flat, grouped and WCOJ profiles over the in-memory image ==
    /// `Source::Rows`, for every worker count, stream block and runtime obs
    /// level.
    #[test]
    fn image_profiles_match_rows(w in arb_workload()) {
        let image = Archive::from_instance(&w.schema, &w.inst);
        for level in [r2t_obs::Level::Off, r2t_obs::Level::Full] {
            r2t_obs::set_level(level);
            for opts in option_matrix(ExecStrategy::Auto) {
                let (rows, _) = profile_with_stats_src(
                    &w.schema, Source::Rows(&w.inst), &w.query, &opts,
                ).expect("heap profile");
                let (imaged, _) = profile_with_stats_src(
                    &w.schema, Source::Archive(&image), &w.query, &opts,
                ).expect("image profile");
                prop_assert_eq!(&imaged, &rows);
                if !w.group_vars.is_empty() {
                    let (rows, _) = profile_grouped_with_stats_src(
                        &w.schema, Source::Rows(&w.inst), &w.query, &w.group_vars, &opts,
                    ).expect("heap grouped");
                    let (imaged, _) = profile_grouped_with_stats_src(
                        &w.schema, Source::Archive(&image), &w.query, &w.group_vars, &opts,
                    ).expect("image grouped");
                    prop_assert_eq!(&imaged, &rows);
                }
            }
            for opts in option_matrix(ExecStrategy::Wcoj) {
                let (rows, _) = profile_with_stats_src(
                    &w.schema, Source::Rows(&w.inst), &w.query, &opts,
                ).expect("heap wcoj");
                let (imaged, _) = profile_with_stats_src(
                    &w.schema, Source::Archive(&image), &w.query, &opts,
                ).expect("image wcoj");
                prop_assert_eq!(&imaged, &rows);
            }
        }
    }

    /// Truncating the file anywhere, or flipping any single byte, makes
    /// `Archive::open` return `Err` — cleanly, whatever the position.
    #[test]
    fn corrupt_archives_fail_cleanly(w in arb_workload(), pos in 0usize..1_000_000, flip in any::<bool>()) {
        let path = temp_archive();
        write_archive(&w.schema, &w.inst, &path).expect("write archive");
        let good = std::fs::read(&path).expect("read archive");
        let bad = if flip {
            let mut b = good.clone();
            let p = pos % b.len();
            b[p] ^= 1 << (pos % 8);
            b
        } else {
            good[..pos % good.len()].to_vec()
        };
        std::fs::write(&path, &bad).expect("rewrite archive");
        let res = Archive::open(&w.schema, &path);
        std::fs::remove_file(&path).expect("remove archive");
        prop_assert!(res.is_err(), "corrupted archive (flip={flip}, pos={pos}) opened cleanly");
    }
}
