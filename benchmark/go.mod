module nvmap/benchmark

go 1.24

require nvmap v0.0.0

replace nvmap => ../
