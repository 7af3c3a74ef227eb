module tpusim/bench

go 1.24

require tpusim v0.0.0

replace tpusim => ../
