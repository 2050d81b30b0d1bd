module ulipc/bench

go 1.22

require ulipc v0.0.0

replace ulipc => ../
