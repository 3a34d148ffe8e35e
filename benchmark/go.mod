module npbgo/benchmark

go 1.22

require npbgo v0.0.0

replace npbgo => ../
