package corpus

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"bioenrich/internal/storage/fsio"
	"bioenrich/internal/textutil"
)

// binaryEnvelope is the gob-encoded corpus image. Unlike the JSON
// format (documents only), the binary format also ships the token
// streams, so loading skips re-tokenization — the expensive half of
// Build — and only rebuilds the index.
type binaryEnvelope struct {
	Magic  string
	Lang   string
	Docs   []Document
	Tokens [][]string
}

const binaryMagic = "bioenrich-corpus-gob-v1"

// WriteBinary serializes the corpus (documents + token streams) in the
// binary format. The corpus must be built.
func (c *Corpus) WriteBinary(w io.Writer) error {
	c.ensureBuilt()
	env := binaryEnvelope{
		Magic:  binaryMagic,
		Lang:   c.lang.String(),
		Docs:   c.docs,
		Tokens: c.tokens,
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(&env); err != nil {
		return fmt.Errorf("corpus: gob encode: %w", err)
	}
	return bw.Flush()
}

// ReadBinary deserializes a corpus written by WriteBinary and rebuilds
// its index from the shipped token streams.
func ReadBinary(r io.Reader) (*Corpus, error) {
	var env binaryEnvelope
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&env); err != nil {
		return nil, fmt.Errorf("corpus: gob decode: %w", err)
	}
	if env.Magic != binaryMagic {
		return nil, fmt.Errorf("corpus: unknown binary format %q", env.Magic)
	}
	if len(env.Tokens) != len(env.Docs) {
		return nil, fmt.Errorf("corpus: corrupt binary image: %d token streams for %d docs",
			len(env.Tokens), len(env.Docs))
	}
	c := New(textutil.ParseLang(env.Lang))
	c.docs = env.Docs
	c.tokens = env.Tokens
	c.index()
	return c, nil
}

// SaveBinary writes the binary image to a file crash-safely
// (write-temp → fsync → rename; see fsio.WriteAtomic): a crash
// mid-save can never leave a torn image at path.
func (c *Corpus) SaveBinary(path string) error {
	if err := fsio.WriteAtomic(path, c.WriteBinary); err != nil {
		return fmt.Errorf("corpus: save binary %s: %w", path, err)
	}
	return nil
}

// LoadBinary reads a corpus file written by SaveBinary. Decode errors
// name the path.
func LoadBinary(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: load binary: %w", err)
	}
	defer f.Close()
	c, err := ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("corpus: load binary %s: %w", path, err)
	}
	return c, nil
}
