module yesquel/benchmark

go 1.21

require yesquel v0.0.0

replace yesquel => ../
