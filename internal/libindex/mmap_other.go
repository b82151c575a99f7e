//go:build !unix

package libindex

import (
	"fmt"
	"os"
)

// mmapSupported reports whether this platform can memory-map an index
// file; when false OpenFile silently reads the file onto the heap instead.
const mmapSupported = false

// mmapFile is unavailable on this platform; OpenFile falls back to the
// heap copy before ever calling it.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, fmt.Errorf("libindex: memory mapping not supported on this platform")
}

// munmapFile matches mmap_unix.go; it is never reached when
// mmapSupported is false.
func munmapFile(data []byte) error {
	return nil
}
