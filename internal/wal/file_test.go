package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestAtomicFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup runs on the empty dir before the file is created.
		setup  func(t *testing.T, final string)
		finish func(a *AtomicFile) error
		// wantErr: Commit fails; want: the final file's bytes, or nil
		// for no file at the final name.
		wantErr bool
		want    []byte
	}{
		{
			name:   "commit",
			finish: func(a *AtomicFile) error { return a.Commit() },
			want:   []byte("hello, world"),
		},
		{
			name:   "abort",
			finish: func(a *AtomicFile) error { a.Abort(); return nil },
		},
		{
			// Renaming a file over a directory fails (EISDIR).
			name: "failed commit",
			setup: func(t *testing.T, final string) {
				if err := os.Mkdir(final, 0o755); err != nil {
					t.Fatal(err)
				}
			},
			finish:  func(a *AtomicFile) error { return a.Commit() },
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			final := filepath.Join(dir, "file")
			if tc.setup != nil {
				tc.setup(t, final)
			}
			a, err := CreateAtomic(final)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Write([]byte("hello, ")); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			if err := tc.finish(a); (err != nil) != tc.wantErr {
				t.Fatalf("finish err = %v, want error %v", err, tc.wantErr)
			}
			if _, err := os.Stat(final + tmpSuffix); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
			got, err := os.ReadFile(final)
			switch {
			case tc.want != nil:
				if err != nil || string(got) != string(tc.want) {
					t.Fatalf("final file = %q, %v; want %q", got, err, tc.want)
				}
			case tc.setup != nil:
				if info, err := os.Stat(final); err != nil || !info.IsDir() {
					t.Fatalf("final path is no longer the directory: %v", err)
				}
			default:
				if !os.IsNotExist(err) {
					t.Fatalf("final file exists: %q, %v", got, err)
				}
			}
		})
	}
}

func TestListSeqReadsSeqNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		SeqName(0x2a, ".seg"), SeqName(7, ".seg"), SeqName(7, ".snap"),
		SeqName(9, ".seg") + tmpSuffix, "7.seg", "000000000000002A.seg", "zz.seg",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := ListSeq(dir, ".seg"); err != nil || !reflect.DeepEqual(got, []uint64{7, 0x2a}) {
		t.Fatalf("ListSeq = %v, %v; want [7 42]", got, err)
	}
	if got, err := ListSeq(filepath.Join(dir, "missing"), ".seg"); err != nil || got != nil {
		t.Fatalf("missing dir: %v, %v", got, err)
	}
	if _, err := ListSeq(filepath.Join(dir, SeqName(7, ".seg")), ".seg"); err == nil {
		t.Fatal("listing a regular file: no error")
	}
	SweepTemps(dir)
	if _, err := os.Stat(filepath.Join(dir, SeqName(9, ".seg")+tmpSuffix)); !os.IsNotExist(err) {
		t.Fatalf("SweepTemps left a temp file: %v", err)
	}
}
