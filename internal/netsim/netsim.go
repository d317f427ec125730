// Package netsim models the hardware and communication costs of a Trusted
// Data Server, calibrated with the unit-test numbers of Section 6.2:
//
//   - tamper-resistant microcontroller, 32-bit RISC CPU at 120 MHz;
//   - AES/SHA crypto co-processor: one 128-bit block costs 167 cycles;
//   - USB full speed: 12 Mbps in theory, ~7.9 Mbps measured;
//   - partitions are streamed in 4 KB units;
//   - the per-tuple cost constant of the cost model is T_t = 16 µs for an
//     encrypted tuple of s_t = 16 bytes.
//
// The paper evaluates its protocols with an analytical model calibrated by
// these measurements, because standing up a nation-wide fleet of secure
// devices is not feasible. We reproduce the same methodology: wall-clock
// time of the Go simulation is irrelevant; simulated time is accounted
// through Meter using this calibration.
package netsim

import (
	"fmt"
	"sort"
	"time"
)

// Calibration holds the device and link constants.
type Calibration struct {
	// CPUHz is the TDS clock rate (120 MHz on the unit-test board).
	CPUHz float64
	// AESCyclesPerBlock is the co-processor cost of one 128-bit block.
	AESCyclesPerBlock float64
	// CPUCyclesPerByte models the non-crypto work per payload byte:
	// converting raw decrypted bytes into number formats, predicate and
	// aggregate evaluation. Chosen so that CPU cost exceeds crypto cost
	// (Fig. 9b) — the conversion work dwarfs the hardware-assisted AES.
	CPUCyclesPerByte float64
	// TransferBitsPerSec is the measured device link throughput
	// (7.9 Mbps on the unit-test board's USB full speed port).
	TransferBitsPerSec float64
	// TupleSize is s_t, the size of an encrypted tuple on the wire.
	TupleSize int
	// PartitionSize is the streaming unit between SSI and TDS (4 KB).
	PartitionSize int
}

// DefaultCalibration returns the unit-test board of Section 6.2.
func DefaultCalibration() Calibration {
	return Calibration{
		CPUHz:              120e6,
		AESCyclesPerBlock:  167,
		CPUCyclesPerByte:   25,
		TransferBitsPerSec: 7.9e6,
		TupleSize:          16,
		PartitionSize:      4096,
	}
}

// TransferTime is the link time to move n bytes in either direction.
func (c Calibration) TransferTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * 8 / c.TransferBitsPerSec * float64(time.Second))
}

// CryptoTime is the co-processor time to encrypt or decrypt n bytes
// (AES processes 16-byte blocks; partial blocks round up).
func (c Calibration) CryptoTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	blocks := (n + 15) / 16
	cycles := float64(blocks) * c.AESCyclesPerBlock
	return time.Duration(cycles / c.CPUHz * float64(time.Second))
}

// CPUTime is the general-purpose processing time over n payload bytes.
func (c Calibration) CPUTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * c.CPUCyclesPerByte / c.CPUHz * float64(time.Second))
}

// TupleTime is T_t of the cost model: the full cost (transfer, crypto,
// CPU) of handling one encrypted tuple of n bytes.
func (c Calibration) TupleTime(n int) time.Duration {
	return c.TransferTime(n) + c.CryptoTime(n) + c.CPUTime(n)
}

// Breakdown is the internal time consumption of handling one partition,
// mirroring Fig. 9b.
type Breakdown struct {
	Transfer time.Duration // download input + upload output
	Decrypt  time.Duration
	CPU      time.Duration
	Encrypt  time.Duration
}

// Total sums all components.
func (b Breakdown) Total() time.Duration {
	return b.Transfer + b.Decrypt + b.CPU + b.Encrypt
}

// String renders the breakdown for CLI output.
func (b Breakdown) String() string {
	return fmt.Sprintf("transfer=%v decrypt=%v cpu=%v encrypt=%v total=%v",
		b.Transfer, b.Decrypt, b.CPU, b.Encrypt, b.Total())
}

// PartitionBreakdown computes the Fig. 9b decomposition for a partition of
// inBytes whose processing produces outBytes of (encrypted) result. On the
// unit-test board with 4 KB partitions the transfer cost dominates, CPU
// exceeds crypto, and encryption is far below decryption because only the
// small aggregate result is re-encrypted.
func (c Calibration) PartitionBreakdown(inBytes, outBytes int) Breakdown {
	return Breakdown{
		Transfer: c.TransferTime(inBytes) + c.TransferTime(outBytes),
		Decrypt:  c.CryptoTime(inBytes),
		CPU:      c.CPUTime(inBytes),
		Encrypt:  c.CryptoTime(outBytes),
	}
}

// Meter accumulates the simulated time one TDS spends in a protocol run.
// The protocol layer calls the Add methods as it moves bytes and work
// through the device; Total is the device's T_local contribution.
type Meter struct {
	Transfer time.Duration
	Decrypt  time.Duration
	Encrypt  time.Duration
	CPU      time.Duration
}

// AddDownload accounts receiving n bytes.
func (m *Meter) AddDownload(c Calibration, n int) { m.Transfer += c.TransferTime(n) }

// AddUpload accounts sending n bytes.
func (m *Meter) AddUpload(c Calibration, n int) { m.Transfer += c.TransferTime(n) }

// AddDecrypt accounts decrypting n bytes.
func (m *Meter) AddDecrypt(c Calibration, n int) { m.Decrypt += c.CryptoTime(n) }

// AddEncrypt accounts encrypting n bytes.
func (m *Meter) AddEncrypt(c Calibration, n int) { m.Encrypt += c.CryptoTime(n) }

// AddCompute accounts general processing over n bytes.
func (m *Meter) AddCompute(c Calibration, n int) { m.CPU += c.CPUTime(n) }

// Total is the simulated busy time of the device.
func (m *Meter) Total() time.Duration {
	return m.Transfer + m.Decrypt + m.Encrypt + m.CPU
}

// Merge adds another meter's time into this one.
func (m *Meter) Merge(o Meter) {
	m.Transfer += o.Transfer
	m.Decrypt += o.Decrypt
	m.Encrypt += o.Encrypt
	m.CPU += o.CPU
}

// Makespan computes the completion time of a set of independent tasks on p
// identical parallel workers using longest-processing-time list scheduling.
// The protocol engine uses it to turn per-partition costs into a phase
// duration when fewer TDSs are connected than there are partitions.
func Makespan(tasks []time.Duration, p int) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	if p <= 0 {
		p = 1
	}
	if p > len(tasks) {
		p = len(tasks)
	}
	sorted := append([]time.Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	load := make([]time.Duration, p)
	for _, t := range sorted {
		// assign to least-loaded worker
		min := 0
		for i := 1; i < p; i++ {
			if load[i] < load[min] {
				min = i
			}
		}
		load[min] += t
	}
	var max time.Duration
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
