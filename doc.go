// Package randpriv is a Go reproduction of "Deriving Private Information
// from Randomized Data" (Huang, Du & Chen, SIGMOD 2005): reconstruction
// attacks on additively randomized data (UDR, PCA-DR, BE-DR, spectral
// filtering) and the correlated-noise defense, together with the full
// experimental harness that regenerates the paper's Figures 1–4.
//
// The implementation lives under internal/; see README.md for the layout,
// docs/ARCHITECTURE.md for the data flow, and cmd/randpriv for the CLI.
// The figures run through the same assessment engine randprivd serves,
// with their sweep points in parallel at GOMAXPROCS (experiment.Runner):
// the same seed produces bit-identical figures at any GOMAXPROCS.
package randpriv
