// Package accelscore reproduces "Hardware Acceleration for DBMS Machine
// Learning Scoring: Is It Worth the Overheads?" (Azad, Sen, Park, Joshi —
// ISPASS 2021) as a pure-Go system: a random-forest library, calibrated
// functional simulators for the paper's CPU/GPU/FPGA scoring backends, a
// mini-DBMS with an external-runtime scoring pipeline, and an offload
// advisor that reproduces every figure of the paper's evaluation.
//
// See README.md for the layout, DESIGN.md for the system inventory and the
// hardware-substitution rationale, and EXPERIMENTS.md for paper-vs-measured
// results. The root-level benchmarks in bench_test.go regenerate each
// figure; `accelscore repro` renders them as text.
package accelscore
