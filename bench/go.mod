module github.com/trustedcells/tcq/bench

go 1.22

require github.com/trustedcells/tcq v0.0.0

replace github.com/trustedcells/tcq => ../
