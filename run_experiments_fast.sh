#!/bin/sh
# Time-boxed single-core sweep (~45 min): every paper artifact at a scale
# where every method (including the SCIS rows) finishes. Paper-critical
# artifacts first; extensions last.
set -x
mkdir -p bench_results/logs
BIN=./target/release
SCALE=1.0 MAXROWS=1500 SEEDS=1 BUDGET=120 EPOCHS=10 $BIN/table3 > bench_results/logs/table3.log 2>&1
SCALE=0.0005 SEEDS=1 BUDGET=120 EPOCHS=10 $BIN/table4           > bench_results/logs/table4.log 2>&1
SCALE=1.0 MAXROWS=1500 SEEDS=1 BUDGET=120 EPOCHS=10 $BIN/table5 > bench_results/logs/table5.log 2>&1
SCALE=0.0005 SEEDS=1 BUDGET=120 EPOCHS=10 $BIN/table6           > bench_results/logs/table6.log 2>&1
$BIN/fig_divergence                                             > bench_results/logs/fig_divergence.log 2>&1
RECIPES=trial SCALE=1.0 MAXROWS=1500 BUDGET=90 EPOCHS=8 $BIN/fig3 > bench_results/logs/fig3.log 2>&1
RECIPES=trial SCALE=1.0 MAXROWS=1500 BUDGET=90 EPOCHS=8 $BIN/fig4 > bench_results/logs/fig4.log 2>&1
RECIPES=trial SCALE=1.0 MAXROWS=1500 BUDGET=90 EPOCHS=8 $BIN/fig2 > bench_results/logs/fig2.log 2>&1
SCALE=0.02 BUDGET=90 EPOCHS=8 $BIN/table7                       > bench_results/logs/table7.log 2>&1
SIZES=500,2000,8000 BUDGET=240 EPOCHS=8 $BIN/fig_scaling        > bench_results/logs/fig_scaling.log 2>&1
SCALE=1.0 MAXROWS=1500 BUDGET=90 EPOCHS=8 $BIN/ablation_dim     > bench_results/logs/ablation_dim.log 2>&1
EPOCHS=8 BUDGET=90 $BIN/ext_mechanisms                          > bench_results/logs/ext_mechanisms.log 2>&1
$BIN/summarize                                                  > bench_results/logs/summarize.log 2>&1
echo CAMPAIGN_DONE
