module mca/bench

go 1.24

require mca v0.0.0

replace mca => ../
