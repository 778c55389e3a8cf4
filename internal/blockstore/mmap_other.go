//go:build !unix

package blockstore

import (
	"errors"
	"os"
)

// mmapFile always fails here, so every block file is read onto the heap.
func mmapFile(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) error { return nil }
