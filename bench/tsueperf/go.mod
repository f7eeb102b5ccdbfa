module tsue/bench/tsueperf

go 1.22

require tsue v0.0.0

replace tsue => ../..
