package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// Per-call samples live outside the Go heap, in an anonymous mapping:
// a run's samples are megabytes, and holding them in the heap would
// raise the heap goal and so change how often the garbage collector
// runs under the program being measured. Pages are only committed as
// samples are written.

// offHeap returns an empty slice with room for n values of T backed by
// an anonymous mapping, and the function that releases it. T must hold
// no pointers.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, func() {}, nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, nil, fmt.Errorf("mapping %d bytes of sample storage: %w", size, err)
	}
	s := unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0]
	return s, func() { syscall.Munmap(mem) }, nil
}
