module procdecomp/benchmarks/pdperf

go 1.22

require procdecomp v0.0.0

replace procdecomp => ../..
