package mpx

import "testing"

// TestStatsAddSums pins the aggregation harnesses use over endpoints:
// counters sum and ReplayHighWater takes the maximum.
func TestStatsAddSums(t *testing.T) {
	var sum TransportStats
	sum.Add(TransportStats{PayloadDelivered: 10, ReplayHighWater: 4})
	sum.Add(TransportStats{PayloadDelivered: 5, ReplayHighWater: 9})
	sum.Add(TransportStats{PayloadDelivered: 3, ReplayHighWater: 2})
	if sum.PayloadDelivered != 18 {
		t.Fatalf("PayloadDelivered = %d, want 18", sum.PayloadDelivered)
	}
	if sum.ReplayHighWater != 9 {
		t.Fatalf("ReplayHighWater = %d, want 9", sum.ReplayHighWater)
	}
}
