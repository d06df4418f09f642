// The benchmark is a module of its own so that it builds from its own
// directory; the import path stays under gqr/ so that it may import the
// serving stack's internal packages.
module gqr/benchmark

go 1.22

require gqr v0.0.0

replace gqr => ../
