package trace

import (
	"bytes"
	"reflect"
	"testing"

	"tcpstall/internal/packet"
)

func TestParsePorts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []PortService
	}{
		{"80", []PortService{{80, "pcap"}}},
		{"65535", []PortService{{65535, "pcap"}}},
		{"80=web-search", []PortService{{80, "web-search"}}},
		{"80=web-search,8080=cloud-storage", []PortService{{80, "web-search"}, {8080, "cloud-storage"}}},
		{"443,8443=cdn", []PortService{{443, "pcap"}, {8443, "cdn"}}},
		{"80=a=b", []PortService{{80, "a=b"}}},
	} {
		got, err := ParsePorts(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePorts(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{
		"", "0", "65536", "65616", "-1", "http", "80x", " 80", "80,",
		"80=", "=web", "80=a,80=b", "80,80", "80=a,,8080=b",
	} {
		if got, err := ParsePorts(in); err == nil {
			t.Errorf("ParsePorts(%q) = %v, want an error", in, got)
		}
	}
}

// TestImportTwoPortsSameClient: one client endpoint with a connection
// to each of two mapped ports, as behind a NAT, imports as two flows,
// each labelled with its port's service and carrying the port in its
// ID.
func TestImportTwoPortsSameClient(t *testing.T) {
	c := newCapture(t)
	for _, port := range []uint16{80, 8080} {
		c.port = port
		c.frame(false, clientA, packet.FlagSYN, 0, 0, 0)
		c.frame(true, clientA, packet.FlagSYN|packet.FlagACK, 0, 1, 0)
		c.frame(false, clientA, packet.FlagACK, 1, 1, 0)
	}
	c.port = 80
	c.frame(true, clientA, packet.FlagACK, 1, 1, 100)
	c.port = 8080
	c.frame(true, clientA, packet.FlagACK, 1, 1, 200)

	cfg := ImportConfig{Ports: []PortService{{80, "web-search"}, {8080, "cloud-storage"}}}
	flows, err := ImportPcap(bytes.NewReader(c.buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	type summary struct {
		id, svc string
		n       int
		bytes   int64
	}
	var got []summary
	for _, f := range flows {
		got = append(got, summary{f.ID, f.Service, len(f.Records), f.DataBytes()})
	}
	want := []summary{
		{"100.64.0.1:12345@80", "web-search", 4, 100},
		{"100.64.0.1:12345@8080", "cloud-storage", 4, 200},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flows = %+v\nwant %+v", got, want)
	}

	// Read with only one of the ports mapped, the other port's frames
	// are not the server's, and the ID has no port.
	flows, err = ImportPcap(bytes.NewReader(c.buf.Bytes()), ImportConfig{Ports: []PortService{{8080, "cloud-storage"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].ID != "100.64.0.1:12345" || flows[0].Service != "cloud-storage" || len(flows[0].Records) != 4 {
		t.Errorf("8080 alone: got %v", flows)
	}
}
