package kvserver_test

import (
	"strings"
	"testing"
	"time"

	"yesquel/internal/kv/kvserver"
)

// TestOpenStoreRejectsNegativeConfig: no Config field gives a negative
// value a meaning, and some would misbehave on one (a negative
// MaxVersions trims past the version chain's end on an object's second
// commit), so OpenStore refuses each, naming the field.
func TestOpenStoreRejectsNegativeConfig(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   kvserver.Config
	}{
		{"MaxVersions", kvserver.Config{MaxVersions: -1}},
		{"ReplicationLogMaxRecords", kvserver.Config{ReplicationLogMaxRecords: -1}},
		{"LockWaitTimeout", kvserver.Config{LockWaitTimeout: -time.Second}},
		{"LeaseDuration", kvserver.Config{LeaseDuration: -time.Second}},
		{"GroupCommitInterval", kvserver.Config{GroupCommitInterval: -time.Millisecond}},
	} {
		_, err := kvserver.OpenStore(nil, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("OpenStore with a negative %s: err = %v, want one naming the field", c.field, err)
		}
	}
}
