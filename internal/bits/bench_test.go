package bits

import "testing"

func BenchmarkBase(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Base(uint64(i)*0x9E3779B97F4A7C15, 20)
	}
	_ = sink
}

func BenchmarkPeriod(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Period(uint64(i)*0x9E3779B97F4A7C15, 20)
	}
	_ = sink
}

func BenchmarkGrayCode(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= GrayCode(uint64(i))
	}
	_ = sink
}
