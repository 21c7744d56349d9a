#!/bin/bash
# Regenerates the paper figures' text outputs under results/ from a build in
# build/; run from anywhere in the checkout.
cd "$(dirname "$0")/.."
export VEDR_SCALE=0.015625
VEDR_CASES=paper ./build/bench/fig09_precision_recall > results/fig09.txt 2>&1
VEDR_CASES=paper ./build/bench/fig10_overhead > results/fig10.txt 2>&1
VEDR_CASES=20 ./build/bench/fig12_param_sweep > results/fig12.txt 2>&1
VEDR_CASES=30 ./build/bench/fig13_ablation > results/fig13.txt 2>&1
./build/bench/fig14_case_study > results/fig14.txt 2>&1
./build/bench/fig11_monitor_overhead --benchmark_min_time=0.2s > results/fig11.txt 2>&1
echo ALL_DONE > results/suite_done.txt
