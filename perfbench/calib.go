package main

import (
	"crypto/sha256"
	"math/big"
	"runtime"
	"strconv"
	"time"
)

// refCalibS is the calibration kernel's time at the reference host speed:
// about its median on a 2-vCPU Intel Xeon VM. A job's times are scaled by
// refCalibS over the kernel's time in the job's own process.
const refCalibS = 0.1

// calibSink keeps the kernel's result live so that it is not optimised
// away.
var calibSink uint64

// calibKernel is a fixed amount of single-threaded work of the kinds the
// program does: string-keyed map inserts and lookups with their
// allocations, SHA-256 over a buffer, and 1024-bit modular
// exponentiation. It touches no program code, so a change to the program
// cannot change it.
func calibKernel() uint64 {
	var acc uint64
	m := map[string]int{}
	for i := 0; i < 90000; i++ {
		m["k"+strconv.Itoa(i*7919%100003)] += i
		if v, ok := m["k"+strconv.Itoa(i)]; ok {
			acc += uint64(v)
		}
	}
	buf := make([]byte, 1<<16)
	for i := 0; i < 60; i++ {
		h := sha256.Sum256(buf)
		buf[i] = h[0]
		acc += uint64(h[1])
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 1023)
	mod.Sub(mod, big.NewInt(1155))
	x := big.NewInt(65537)
	for i := 0; i < 38; i++ {
		x.Exp(x, mod, mod)
	}
	return acc + x.Uint64()
}

// calibrate times the kernel and collects its garbage, so the program
// starts on a clean heap.
func calibrate() float64 {
	start := time.Now()
	calibSink += calibKernel()
	d := time.Since(start).Seconds()
	runtime.GC()
	return d
}
