package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction for the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuInfo reports the processor brand string and whether the CPU advertises
// AVX2 and AVX-512F, read with CPUID so the benchmark needs no file outside
// its checkout.
func cpuInfo() (model string, avx2, avx512f bool) {
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt >= 0x80000004 {
		var b [48]byte
		for i := uint32(0); i < 3; i++ {
			a, bx, c, d := cpuid(0x80000002+i, 0)
			for j, r := range [4]uint32{a, bx, c, d} {
				binary.LittleEndian.PutUint32(b[16*i+4*uint32(j):], r)
			}
		}
		model = strings.TrimSpace(strings.TrimRight(string(b[:]), "\x00"))
	}
	if maxStd, _, _, _ := cpuid(0, 0); maxStd >= 7 {
		_, ebx, _, _ := cpuid(7, 0)
		avx2 = ebx&(1<<5) != 0
		avx512f = ebx&(1<<16) != 0
	}
	return model, avx2, avx512f
}
