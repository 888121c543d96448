#!/bin/bash
# Regenerates the paper-table outputs under results/: the "Regenerate
# everything" block of EXPERIMENTS.md, run from the repository root.
set -e
cd "$(dirname "$0")/.."
cargo build --release
R2T_REPS=3 ./target/release/repro_table2 > results/table2.txt
R2T_REPS=3 ./target/release/repro_table3 > results/table3.txt
R2T_REPS=3 ./target/release/repro_table4 > results/table4.txt
R2T_REPS=5 ./target/release/repro_table5 > results/table5.txt
R2T_REPS=5 ./target/release/repro_fig6   > results/fig6.txt
R2T_REPS=3 ./target/release/repro_fig7   > results/fig7.txt
R2T_REPS=3 ./target/release/repro_fig8   > results/fig8.txt
