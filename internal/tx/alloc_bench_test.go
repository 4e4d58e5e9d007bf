package tx

import (
	"testing"
)

// Allocation benchmarks for the pooled hot path (run with -benchmem): the
// Tx shell, staged-record structs, staging requests and their value/entry
// buffers are recycled across attempts and transactions by the executor
// pools, so steady-state Exec should allocate near-zero bytes per committed
// transaction. Before pooling, every attempt allocated a fresh Tx, two maps,
// per-record remoteRec+stageReq structs and staging scratch slices.

func benchLocalTxn(e *Executor) error {
	return e.Exec(func(tx *Tx) error {
		if err := tx.R(tblAccounts, 1); err != nil {
			return err
		}
		if err := tx.W(tblAccounts, 2); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			v, err := lc.Read(tblAccounts, 1)
			if err != nil {
				return err
			}
			return lc.Write(tblAccounts, 2, []uint64{v[0] + 1, v[1]})
		})
	})
}

func benchRemoteTxn(e *Executor, spec bool) error {
	// Key 1 and 3 live on node 1; the executor runs on node 0, so both
	// records take the full remote Start-phase path.
	return e.Exec(func(tx *Tx) error {
		if err := tx.Stage(
			Access{Table: tblAccounts, Key: 1, Write: false},
			Access{Table: tblAccounts, Key: 3, Write: true},
		); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			v, err := lc.Read(tblAccounts, 1)
			if err != nil {
				return err
			}
			return lc.Write(tblAccounts, 3, []uint64{v[0] + 1, v[1]})
		})
	})
}

func benchMVCCROTxn(e *Executor) error {
	// Key 1 lives on node 1 (remote), key 2 on node 0 (local): one snapshot
	// RO resolving both against their version chains at the read stamp.
	return e.ExecRO(func(ro *RO) error {
		if _, err := ro.Read(tblAccounts, 1); err != nil {
			return err
		}
		_, err := ro.Read(tblAccounts, 2)
		return err
	})
}

func benchRO20Txn(e *Executor) error {
	// Keys 1..20 alternate between node 1 (remote) and node 0 (local): the
	// benchmark ladder's tx.exec_ro20 rung.
	return e.ExecRO(func(ro *RO) error {
		for k := uint64(1); k <= 20; k++ {
			if _, err := ro.Read(tblAccounts, k); err != nil {
				return err
			}
		}
		return nil
	})
}

func BenchmarkExecLocal(b *testing.B) {
	rt, stop := newRig(b, 1, 1, 4, nil)
	defer stop()
	e := rt.Executor(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchLocalTxn(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecRemoteLease(b *testing.B) {
	rt, stop := newRig(b, 2, 1, 8, nil)
	defer stop()
	e := rt.Executor(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchRemoteTxn(e, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecRemoteSpec(b *testing.B) {
	rt, stop := newRig(b, 2, 1, 8, nil)
	defer stop()
	rt.ReadPolicy = PolicySpeculative
	e := rt.Executor(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchRemoteTxn(e, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecROMVCC(b *testing.B) {
	rt, stop := newRig(b, 2, 1, 8, withChains)
	defer stop()
	rt.ReadPolicy = PolicyMVCC
	e := rt.Executor(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchMVCCROTxn(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecRO20(b *testing.B) {
	rt, stop := newRig(b, 2, 1, 20, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	e := rt.Executor(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchRO20Txn(e); err != nil {
			b.Fatal(err)
		}
	}
}
