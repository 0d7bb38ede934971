package keystore

import (
	"testing"
	"unsafe"
)

// TestKeystoreStructBudgets pins the packed record layout from ISSUE 9: one
// outstanding key costs a 16-byte record (interned page handle + coarse
// expiry tick + kind/consumed flags) and one tracked client stays within a
// cache-line-and-a-half. A failure means a field was added without
// re-deriving the budget.
func TestKeystoreStructBudgets(t *testing.T) {
	if got := unsafe.Sizeof(keyRecord{}); got != 16 {
		t.Errorf("keyRecord = %d bytes, want exactly 16 (handle 8 + tick 4 + flags 1 + pad)", got)
	}
	if got := unsafe.Sizeof(issueBatch{}); got != 16 {
		t.Errorf("issueBatch = %d bytes, want exactly 16 (key 8 + token tag 4 + decoy count 4)", got)
	}
	if got := unsafe.Sizeof(clientState{}); got > 104 {
		t.Errorf("clientState = %d bytes, exceeds the 104-byte budget", got)
	}

	if keyRecordBytes != int64(unsafe.Sizeof(keyRecord{})) {
		t.Errorf("keyRecordBytes = %d, want unsafe.Sizeof(keyRecord{}) = %d",
			keyRecordBytes, unsafe.Sizeof(keyRecord{}))
	}
	if keyEntryBytes != keyRecordBytes+keyOverheadBytes {
		t.Errorf("keyEntryBytes = %d, want record (%d) + overhead (%d)",
			keyEntryBytes, keyRecordBytes, keyOverheadBytes)
	}
	if clientBaseBytes != clientStructBytes+clientOverheadBytes {
		t.Errorf("clientBaseBytes = %d, want struct (%d) + overhead (%d)",
			clientBaseBytes, clientStructBytes, clientOverheadBytes)
	}
}
