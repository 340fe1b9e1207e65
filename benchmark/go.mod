module gonamd/benchmark

go 1.22

require gonamd v0.0.0

replace gonamd => ../
