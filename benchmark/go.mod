module github.com/hyperprov/hyperprov/benchmark

go 1.24

require github.com/hyperprov/hyperprov v0.0.0

replace github.com/hyperprov/hyperprov => ../
