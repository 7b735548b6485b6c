package hw

import (
	"fmt"
	"sync"

	"mlperf/internal/units"
)

// System is one experimental platform from Table III: host CPUs, memory,
// GPUs and the interconnect topology wiring them together.
type System struct {
	Name string
	// Interconnect is the Table III description of the GPU interconnect.
	Interconnect string
	CPU          CPU
	CPUSockets   int
	DIMM         DIMM
	DIMMCount    int
	GPU          GPU
	GPUCount     int
	// Topo is the interconnect graph.
	Topo *Topology
}

// TotalDRAM returns the installed system memory.
func (s *System) TotalDRAM() units.Bytes {
	return s.DIMM.Size * units.Bytes(s.DIMMCount)
}

// GPUIDs returns the GPU vertex IDs (gpu0..gpuN-1).
func (s *System) GPUIDs() []string {
	ids := make([]string, s.GPUCount)
	for i := range ids {
		ids[i] = gpuID(i)
	}
	return ids
}

func gpuID(i int) string { return fmt.Sprintf("gpu%d", i) }
func cpuID(i int) string { return fmt.Sprintf("cpu%d", i) }

// addHost inserts socket CPUs, their DRAM nodes and the UPI mesh.
func addHost(t *Topology, c CPU, sockets int, d DIMM) {
	for i := 0; i < sockets; i++ {
		cc := c
		t.AddNode(Node{ID: cpuID(i), Kind: NodeCPU, CPU: &cc})
		t.AddNode(Node{ID: fmt.Sprintf("dram%d", i), Kind: NodeMemory})
		t.Connect(cpuID(i), fmt.Sprintf("dram%d", i), DRAMLink(c.MemChannels, d.MTps))
	}
	// Sockets are fully connected by UPI (2- and 4-socket Xeon platforms).
	for i := 0; i < sockets; i++ {
		for j := i + 1; j < sockets; j++ {
			t.Connect(cpuID(i), cpuID(j), UPILink())
		}
	}
}

// T640 is a 2-socket tower: two PCIe GPUs per socket hanging directly off
// CPU root ports. GPU pairs on different sockets communicate across UPI; no
// GPUDirect P2P anywhere (each GPU is its own root complex domain).
func T640() *System {
	t := NewTopology()
	addHost(t, XeonGold6148, 2, DDR4_2666_16GB)
	g := TeslaV100PCIe32
	for i := 0; i < 4; i++ {
		gc := g
		t.AddNode(Node{ID: gpuID(i), Kind: NodeGPU, GPU: &gc})
		t.Connect(gpuID(i), cpuID(i/2), PCIe3Link(16))
	}
	return &System{
		Name:         "T640",
		Interconnect: "PCIe & UPI",
		CPU:          XeonGold6148, CPUSockets: 2,
		DIMM: DDR4_2666_16GB, DIMMCount: 12,
		GPU: g, GPUCount: 4,
		Topo: t,
	}
}

// C4140B routes all four PCIe GPUs through a single 96-lane PLX switch:
// one PCIe domain, so GPUDirect P2P works switch-locally at x16.
func C4140B() *System {
	t := NewTopology()
	addHost(t, XeonGold6148, 2, DDR4_2666_16GB)
	t.AddNode(Node{ID: "plx0", Kind: NodeSwitch})
	t.Connect("plx0", cpuID(0), PCIe3Link(16))
	g := TeslaV100PCIe
	for i := 0; i < 4; i++ {
		gc := g
		t.AddNode(Node{ID: gpuID(i), Kind: NodeGPU, GPU: &gc})
		t.Connect(gpuID(i), "plx0", PCIe3Link(16))
	}
	return &System{
		Name:         "C4140 (B)",
		Interconnect: "PCIe",
		CPU:          XeonGold6148, CPUSockets: 2,
		DIMM: DDR4_2666_16GB, DIMMCount: 12,
		GPU: g, GPUCount: 4,
		Topo: t,
	}
}

// nvlinkMesh wires 4 SXM2 GPUs in the V100 hybrid cube mesh: each pair is
// connected by NVLink; adjacent pairs get two bricks, diagonals one, using
// each GPU's six bricks (2+2+1 per GPU here, matching DGX-1-style wiring
// for a 4-GPU board).
func nvlinkMesh(t *Topology, g GPU) {
	for i := 0; i < 4; i++ {
		gc := g
		t.AddNode(Node{ID: gpuID(i), Kind: NodeGPU, GPU: &gc})
	}
	type pair struct{ a, b, bricks int }
	pairs := []pair{
		{0, 1, 2}, {2, 3, 2}, // double-brick neighbors
		{0, 2, 2}, {1, 3, 2},
		{0, 3, 1}, {1, 2, 1}, // single-brick diagonals
	}
	for _, p := range pairs {
		t.Connect(gpuID(p.a), gpuID(p.b), NVLinkBricks(p.bricks))
	}
}

// C4140K has SXM2 NVLink GPUs whose PCIe connections are aggregated by a
// PLX switch before reaching CPU0. This is the system the paper runs the
// Table V utilization study on.
func C4140K() *System {
	t := NewTopology()
	addHost(t, XeonGold6148, 2, DDR4_2666_16GB)
	t.AddNode(Node{ID: "plx0", Kind: NodeSwitch})
	t.Connect("plx0", cpuID(0), PCIe3Link(16))
	nvlinkMesh(t, TeslaV100SXM2)
	for i := 0; i < 4; i++ {
		t.Connect(gpuID(i), "plx0", PCIe3Link(16))
	}
	return &System{
		Name:         "C4140 (K)",
		Interconnect: "NVLink",
		CPU:          XeonGold6148, CPUSockets: 2,
		DIMM: DDR4_2666_16GB, DIMMCount: 12,
		GPU: TeslaV100SXM2, GPUCount: 4,
		Topo: t,
	}
}

// C4140M has SXM2 NVLink GPUs with PCIe lanes direct from the CPUs, two
// GPUs per socket.
func C4140M() *System {
	t := NewTopology()
	addHost(t, XeonGold6148, 2, DDR4_2666_16GB)
	nvlinkMesh(t, TeslaV100SXM2)
	for i := 0; i < 4; i++ {
		t.Connect(gpuID(i), cpuID(i/2), PCIe3Link(16))
	}
	return &System{
		Name:         "C4140 (M)",
		Interconnect: "NVLink",
		CPU:          XeonGold6148, CPUSockets: 2,
		DIMM: DDR4_2666_16GB, DIMMCount: 24,
		GPU: TeslaV100SXM2, GPUCount: 4,
		Topo: t,
	}
}

// R940XA is a 4-socket platform with one GPU per CPU; every GPU-GPU route
// crosses UPI and no P2P is possible.
func R940XA() *System {
	t := NewTopology()
	addHost(t, XeonGold6148, 4, DDR4_2666_16GB)
	g := TeslaV100PCIe32
	for i := 0; i < 4; i++ {
		gc := g
		t.AddNode(Node{ID: gpuID(i), Kind: NodeGPU, GPU: &gc})
		t.Connect(gpuID(i), cpuID(i), PCIe3Link(16))
	}
	return &System{
		Name:         "R940 XA",
		Interconnect: "UPI",
		CPU:          XeonGold6148, CPUSockets: 4,
		DIMM: DDR4_2666_16GB, DIMMCount: 24,
		GPU: g, GPUCount: 4,
		Topo: t,
	}
}

// DSS8440 is the 8-GPU scaling platform (Table IV): two PLX switch groups
// of four PCIe GPUs each, one group per socket, with UPI between sockets.
// P2P works within a switch group.
func DSS8440() *System {
	t := NewTopology()
	addHost(t, XeonGold6142, 2, DDR4_2666_32GB)
	g := TeslaV100PCIe
	for s := 0; s < 2; s++ {
		sw := fmt.Sprintf("plx%d", s)
		t.AddNode(Node{ID: sw, Kind: NodeSwitch})
		t.Connect(sw, cpuID(s), PCIe3Link(16))
		for k := 0; k < 4; k++ {
			i := s*4 + k
			gc := g
			t.AddNode(Node{ID: gpuID(i), Kind: NodeGPU, GPU: &gc})
			t.Connect(gpuID(i), sw, PCIe3Link(16))
		}
	}
	return &System{
		Name:         "DSS 8440",
		Interconnect: "PCIe & UPI",
		CPU:          XeonGold6142, CPUSockets: 2,
		DIMM: DDR4_2666_32GB, DIMMCount: 12,
		GPU: g, GPUCount: 8,
		Topo: t,
	}
}

// DGX1 is NVIDIA's submission machine (§III-B: "NVIDIA's submission on
// DGX-1"): eight SXM2 V100s in the hybrid cube mesh — two quads with
// dense intra-quad NVLink and single-brick inter-quad links — with four
// PCIe switches (two GPUs each) to two Xeon sockets. Not part of the
// Table III study set; provided for what-if runs at 8 NVLink GPUs.
func DGX1() *System {
	t := NewTopology()
	addHost(t, XeonGold6148, 2, DDR4_2666_32GB)
	g := TeslaV100SXM2
	for i := 0; i < 8; i++ {
		gc := g
		t.AddNode(Node{ID: gpuID(i), Kind: NodeGPU, GPU: &gc})
	}
	// Hybrid cube mesh: within each quad, neighbors get 1-2 bricks; the
	// two quads are joined by one brick per GPU pair (i <-> i+4).
	type pair struct{ a, b, bricks int }
	wiring := []pair{
		// quad 0
		{0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {1, 2, 2}, {1, 3, 1}, {2, 3, 1},
		// quad 1
		{4, 5, 1}, {4, 6, 1}, {4, 7, 2}, {5, 6, 2}, {5, 7, 1}, {6, 7, 1},
		// cube edges
		{0, 4, 1}, {1, 5, 1}, {2, 6, 1}, {3, 7, 1},
	}
	for _, p := range wiring {
		t.Connect(gpuID(p.a), gpuID(p.b), NVLinkBricks(p.bricks))
	}
	// Four PCIe switches, two GPUs each, two per socket.
	for s := 0; s < 4; s++ {
		sw := fmt.Sprintf("plx%d", s)
		t.AddNode(Node{ID: sw, Kind: NodeSwitch})
		t.Connect(sw, cpuID(s/2), PCIe3Link(16))
		t.Connect(gpuID(2*s), sw, PCIe3Link(16))
		t.Connect(gpuID(2*s+1), sw, PCIe3Link(16))
	}
	return &System{
		Name:         "DGX-1",
		Interconnect: "NVLink (hybrid cube mesh)",
		CPU:          XeonGold6148, CPUSockets: 2,
		DIMM: DDR4_2666_32GB, DIMMCount: 16,
		GPU: g, GPUCount: 8,
		Topo: t,
	}
}

// ReferenceP100 is MLPerf's v0.5 reference machine, used only for the
// Table IV P100 column: one P100 on a single socket.
func ReferenceP100() *System {
	t := NewTopology()
	addHost(t, XeonGold6148, 1, DDR4_2666_16GB)
	g := TeslaP100
	t.AddNode(Node{ID: gpuID(0), Kind: NodeGPU, GPU: &g})
	t.Connect(gpuID(0), cpuID(0), PCIe3Link(16))
	return &System{
		Name:         "Reference (P100)",
		Interconnect: "PCIe",
		CPU:          XeonGold6148, CPUSockets: 1,
		DIMM: DDR4_2666_16GB, DIMMCount: 8,
		GPU: g, GPUCount: 1,
		Topo: t,
	}
}

// AllSystems returns the six Table III systems in the table's column order.
func AllSystems() []*System {
	return []*System{T640(), C4140B(), C4140K(), C4140M(), R940XA(), DSS8440()}
}

// SystemByName looks a system up by its Table III name; it also accepts
// compact aliases ("t640", "c4140b", "c4140k", "c4140m", "r940xa",
// "dss8440", "p100").
func SystemByName(name string) (*System, error) {
	switch normalize(name) {
	case "t640":
		return T640(), nil
	case "c4140b":
		return C4140B(), nil
	case "c4140k":
		return C4140K(), nil
	case "c4140m":
		return C4140M(), nil
	case "r940xa":
		return R940XA(), nil
	case "dss8440":
		return DSS8440(), nil
	case "dgx1", "dgx":
		return DGX1(), nil
	case "p100", "referencep100", "reference":
		return ReferenceP100(), nil
	default:
		return nil, fmt.Errorf("hw: unknown system %q", name)
	}
}

// sharedSystems memoizes SharedSystemByName, keyed by every spelling
// seen plus the canonical name, so aliases resolve to one instance.
var (
	sharedMu      sync.Mutex
	sharedSystems = map[string]*System{}
)

// SharedSystemByName is SystemByName without the per-call topology
// construction: the first lookup of each system builds it, every later
// lookup (under any alias) returns the same instance. Sharing is safe
// because a System and its Topology are read-only after construction —
// the topology's route/bandwidth query caches are mutex-guarded and
// built for many concurrent readers — so one instance can serve every
// sweep worker. Callers that intend to mutate a System must use
// SystemByName and own their copy.
func SharedSystemByName(name string) (*System, error) {
	// A hit normalizes into a stack buffer and looks the bytes up
	// without allocating: every cell of every request comes here.
	var buf [32]byte
	key := appendNormalized(buf[:0], name)
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if s, ok := sharedSystems[string(key)]; ok {
		return s, nil
	}
	s, err := SystemByName(name)
	if err != nil {
		return nil, err
	}
	canon := normalize(s.Name)
	if prev, ok := sharedSystems[canon]; ok {
		s = prev // alias of an already-shared system
	} else {
		sharedSystems[canon] = s
	}
	sharedSystems[string(key)] = s
	return s, nil
}

func normalize(s string) string { return string(appendNormalized(nil, s)) }

// appendNormalized appends s lowercased with everything but ASCII
// letters and digits dropped.
func appendNormalized(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'A' && c <= 'Z':
			dst = append(dst, c+'a'-'A')
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			dst = append(dst, c)
		}
	}
	return dst
}
