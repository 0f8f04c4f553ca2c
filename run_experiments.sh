#!/bin/sh
# Runs the full experiment campaign at laptop scale, logging everything to
# bench_results/logs/. Small recipes (Trial, Emergency) run at FULL size;
# MAXROWS caps the million-row ones. The settings below target a ~40-minute
# single-core sweep; raise MAXROWS / SEEDS / BUDGET / EPOCHS (and drop the
# RECIPES filters) for closer-to-paper runs — see EXPERIMENTS.md.
set -x
mkdir -p bench_results/logs
BIN=./target/release

SCALE=1.0 MAXROWS=8500 SEEDS=1 BUDGET=120 EPOCHS=10 $BIN/table3 > bench_results/logs/table3.log 2>&1
SCALE=0.002 SEEDS=1 BUDGET=120 EPOCHS=10 $BIN/table4            > bench_results/logs/table4.log 2>&1
SCALE=1.0 MAXROWS=8500 SEEDS=1 BUDGET=120 EPOCHS=10 $BIN/table5 > bench_results/logs/table5.log 2>&1
SCALE=0.002 SEEDS=1 BUDGET=120 EPOCHS=10 $BIN/table6            > bench_results/logs/table6.log 2>&1
RECIPES=trial SCALE=1.0 BUDGET=120 EPOCHS=10 $BIN/fig2          > bench_results/logs/fig2.log 2>&1
RECIPES=trial SCALE=1.0 BUDGET=120 EPOCHS=10 $BIN/fig3          > bench_results/logs/fig3.log 2>&1
RECIPES=trial SCALE=1.0 BUDGET=120 EPOCHS=10 $BIN/fig4          > bench_results/logs/fig4.log 2>&1
SCALE=0.05 BUDGET=120 EPOCHS=10 $BIN/table7                     > bench_results/logs/table7.log 2>&1
$BIN/fig_divergence                                             > bench_results/logs/fig_divergence.log 2>&1
SIZES=1000,4000,16000 BUDGET=300 EPOCHS=10 $BIN/fig_scaling     > bench_results/logs/fig_scaling.log 2>&1
SCALE=1.0 MAXROWS=3000 BUDGET=120 EPOCHS=10 $BIN/ablation_dim   > bench_results/logs/ablation_dim.log 2>&1
EPOCHS=10 BUDGET=120 $BIN/ext_mechanisms                        > bench_results/logs/ext_mechanisms.log 2>&1
$BIN/summarize                                                  > bench_results/logs/summarize.log 2>&1
echo CAMPAIGN_DONE
