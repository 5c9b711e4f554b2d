// Package textutil provides the low-level text processing substrate used
// by every step of the enrichment workflow: tokenization, sentence
// splitting, normalization (case and accent folding), and stopword lists
// for English, French and Spanish.
//
// Everything here is deterministic and allocation-conscious; the corpus
// indexer calls these routines on hundreds of thousands of abstracts.
package textutil
