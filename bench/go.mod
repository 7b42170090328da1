module beatbgp/bench

go 1.22

require beatbgp v0.0.0

replace beatbgp => ../
