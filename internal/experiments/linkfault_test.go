package experiments

import (
	"errors"
	"testing"
	"time"

	"castanet/internal/coverify"
	"castanet/internal/ipc"
	"castanet/internal/sim"
)

// partitionProfile is the menu's one aborting profile.
func partitionProfile(t *testing.T) LinkFaultProfile {
	for _, p := range LinkFaultProfiles() {
		if p.Abort {
			return p
		}
	}
	t.Fatalf("no aborting profile in %v", LinkFaultProfiles())
	return LinkFaultProfile{}
}

// TestPartitionedSendWithinRetryBudget: on the partition profile's link
// stack a Send past the partition gives up within its retry budget,
// (MaxRetries+1)·RetryCap, the only bound on a reliable Send.
func TestPartitionedSendWithinRetryBudget(t *testing.T) {
	partition := partitionProfile(t)
	var cfg coverify.SwitchRigConfig
	RemoteLink(&cfg, &partition, sim.NewRNG(1))
	a, b := ipc.Pipe(64)
	client := ipc.NewReliable(ipc.NewFault(a, *cfg.Fault), *cfg.Reliable)
	server := ipc.NewReliable(b, *cfg.Reliable)
	defer client.Close()
	defer server.Close()
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				return
			}
		}
	}()
	unit := []ipc.Message{{Kind: ipc.KindUser, Data: []byte{1}}}
	for i := uint64(0); i < partition.Dir.PartitionAfter; i++ {
		if err := client.Send(unit); err != nil {
			t.Fatalf("send %d before the partition: %v", i, err)
		}
	}
	start := time.Now()
	err := client.Send(unit)
	elapsed := time.Since(start)
	if !errors.Is(err, ipc.ErrTimeout) {
		t.Fatalf("partitioned send = %v, want ipc.ErrTimeout", err)
	}
	rc := *cfg.Reliable
	budget := time.Duration(rc.MaxRetries+1) * rc.RetryCap
	// The slack covers scheduling on a loaded host, nothing else.
	if slack := 500 * time.Millisecond; elapsed > budget+slack {
		t.Errorf("partitioned send took %v, budget %v", elapsed, budget)
	}
}
