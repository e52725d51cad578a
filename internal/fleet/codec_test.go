package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// encode renders a snapshot as a push body.
func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fillDistinct sets every leaf reachable from v to a non-zero value
// no other leaf holds, and gives every slice and map two elements.
func fillDistinct(v reflect.Value, next *int) {
	*next++
	k := *next
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillDistinct(key, next)
			fillDistinct(val, next)
			v.SetMapIndex(key, val)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", k))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(k) * 1000003)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(k) * 1000003)
	case reflect.Float64:
		v.SetFloat(float64(k) + 0.25)
	default:
		panic(fmt.Sprintf("fillDistinct: no value for %s", v.Type()))
	}
}

// TestSnapshotCodecCoversEveryField round-trips a snapshot whose every
// field holds its own non-zero value, so a wire field the codec
// forgets — on either side — comes back zero and fails here.
func TestSnapshotCodecCoversEveryField(t *testing.T) {
	var s Snapshot
	fillDistinct(reflect.ValueOf(&s).Elem(), new(int))
	s.Version = WireVersion
	var got Snapshot
	if err := got.UnmarshalBinary(encode(t, &s)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip lost a field\n got  %+v\n want %+v", got, s)
	}
}

// FuzzSnapshotCodec: any body either fails to decode, or decodes to a
// snapshot that encodes to one body, which decodes back to the same
// snapshot.
func FuzzSnapshotCodec(f *testing.F) {
	settled := realSnapshot(f)
	f.Add(encode(f, &settled))
	var full Snapshot
	fillDistinct(reflect.ValueOf(&full).Elem(), new(int))
	full.Version = WireVersion
	f.Add(encode(f, &full))
	// A member ID length that points past the end of the body.
	f.Add([]byte{WireVersion, 5, 'm'})
	// A map whose keys descend.
	m := miniSnap("m", 1, 1, 1)
	m.FlowsEvicted = map[string]uint64{"a": 1, "b": 2}
	f.Add(bytes.Replace(encode(f, m), []byte("\x01a\x01\x01b\x02"), []byte("\x01b\x02\x01a\x01"), 1))

	f.Fuzz(func(t *testing.T, body []byte) {
		var s Snapshot
		if s.UnmarshalBinary(body) != nil {
			return
		}
		again := encode(t, &s)
		var back Snapshot
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("a decoded snapshot re-encodes to a body that does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the snapshot\n got  %+v\n want %+v", back, s)
		}
		if !bytes.Equal(encode(t, &back), again) {
			t.Fatal("one snapshot encodes to two bodies")
		}
	})
}
