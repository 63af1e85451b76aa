module casvm/bench

go 1.22

require casvm v0.0.0

replace casvm => ../
