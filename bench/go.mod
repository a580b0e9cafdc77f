// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive and the clustersched/ path prefix let
// it import the product's internal packages unchanged.
module clustersched/bench

go 1.22

require clustersched v0.0.0

replace clustersched => ../
