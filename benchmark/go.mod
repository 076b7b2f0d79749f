module arq/benchmark

go 1.22

require arq v0.0.0

replace arq => ../
