// The benchmark is a module of its own so that building or testing the
// repository never builds it; the replace directive and the shared import
// path prefix let it import the repository's internal packages.
module github.com/asdf-project/asdf/bench

go 1.22

require github.com/asdf-project/asdf v0.0.0

replace github.com/asdf-project/asdf => ../
