package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTransferTime(t *testing.T) {
	c := DefaultCalibration()
	// 7.9 Mbps -> 4096 bytes in ~4.15 ms.
	got := c.TransferTime(4096)
	want := 4096 * 8 * float64(time.Second) / 7.9e6
	if d := float64(got) - want; d > 1000 || d < -1000 {
		t.Errorf("TransferTime(4096) = %v, want ~%v", got, time.Duration(want))
	}
	if c.TransferTime(0) != 0 || c.TransferTime(-5) != 0 {
		t.Error("non-positive sizes must cost 0")
	}
}

func TestCryptoTimeBlockRounding(t *testing.T) {
	c := DefaultCalibration()
	if c.CryptoTime(1) != c.CryptoTime(16) {
		t.Error("partial blocks must round up")
	}
	if c.CryptoTime(17) != c.CryptoTime(32) {
		t.Error("17 bytes is two blocks")
	}
	if d := c.CryptoTime(32) - 2*c.CryptoTime(16); d < -time.Nanosecond || d > time.Nanosecond {
		t.Error("crypto time must be linear in blocks (±1ns rounding)")
	}
	if c.CryptoTime(0) != 0 {
		t.Error("zero bytes cost 0")
	}
	// One block: 167 cycles at 120 MHz ≈ 1.39 µs.
	if got := c.CryptoTime(16); got < time.Microsecond || got > 2*time.Microsecond {
		t.Errorf("one block = %v", got)
	}
}

func TestFig9bShape(t *testing.T) {
	// The Fig. 9b claim for a 4 KB partition: transfer dominates all other
	// costs; CPU cost exceeds crypto cost; encryption is much smaller than
	// decryption (only the aggregate result is re-encrypted).
	c := DefaultCalibration()
	b := c.PartitionBreakdown(c.PartitionSize, 64)
	if b.Transfer <= b.CPU+b.Decrypt+b.Encrypt {
		t.Errorf("transfer must dominate: %v", b)
	}
	if b.CPU <= b.Decrypt {
		t.Errorf("CPU must exceed crypto: %v", b)
	}
	if b.Encrypt*10 >= b.Decrypt {
		t.Errorf("encryption must be far below decryption: %v", b)
	}
	if b.Total() != b.Transfer+b.Decrypt+b.CPU+b.Encrypt {
		t.Error("Total mismatch")
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
}

func TestTupleTimeOrderOfMagnitude(t *testing.T) {
	// T_t in the paper is 16 µs for a 16-byte tuple; ours lands in the
	// same ballpark (transfer-dominated).
	c := DefaultCalibration()
	tt := c.TupleTime(c.TupleSize)
	if tt < 10*time.Microsecond || tt > 40*time.Microsecond {
		t.Errorf("TupleTime = %v, want tens of µs", tt)
	}
}

func TestMeterAccounting(t *testing.T) {
	c := DefaultCalibration()
	var m Meter
	m.AddDownload(c, 4096)
	m.AddDecrypt(c, 4096)
	m.AddCompute(c, 4096)
	m.AddEncrypt(c, 64)
	m.AddUpload(c, 64)
	b := c.PartitionBreakdown(4096, 64)
	if m.Total() != b.Total() {
		t.Errorf("meter %v != breakdown %v", m.Total(), b.Total())
	}
}

func TestMakespanBasics(t *testing.T) {
	tasks := []time.Duration{4, 3, 2, 1}
	if got := Makespan(tasks, 1); got != 10 {
		t.Errorf("serial makespan = %v", got)
	}
	if got := Makespan(tasks, 2); got != 5 {
		t.Errorf("two workers = %v", got)
	}
	if got := Makespan(tasks, 100); got != 4 {
		t.Errorf("unlimited workers = %v (longest task)", got)
	}
	if got := Makespan(nil, 4); got != 0 {
		t.Errorf("no tasks = %v", got)
	}
	if got := Makespan(tasks, 0); got != 10 {
		t.Errorf("p=0 must behave as serial: %v", got)
	}
}

// Property: makespan is monotone in worker count and bounded by
// [max(task), sum(tasks)].
func TestMakespanProperties(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		tasks := make([]time.Duration, len(raw))
		var sum, max time.Duration
		for i, r := range raw {
			tasks[i] = time.Duration(r)
			sum += tasks[i]
			if tasks[i] > max {
				max = tasks[i]
			}
		}
		p := int(pRaw%8) + 1
		m1 := Makespan(tasks, p)
		m2 := Makespan(tasks, p+1)
		return m1 >= max && m1 <= sum && m2 <= m1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMakespanDoesNotMutateInput(t *testing.T) {
	tasks := []time.Duration{1, 5, 3}
	Makespan(tasks, 2)
	if tasks[0] != 1 || tasks[1] != 5 || tasks[2] != 3 {
		t.Error("input mutated")
	}
}
