module datasynth/bench

go 1.24

require datasynth v0.0.0

replace datasynth => ../
