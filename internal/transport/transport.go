// Package transport provides the socket transport that carries the mpx
// runtime's traffic between processes: TCP runs the cube over TCP or
// Unix-domain sockets, one rank per endpoint, each rank owning log N
// neighbor connections (Loopback connects a whole cube of endpoints in
// one process). The in-process channel transport lives in mpx, next to
// its zero-allocation fast path.
//
// Both satisfy mpx.Transport, so every collective in
// internal/comm and every node program written against mpx runs
// unchanged over either backend — the paper's algorithms are distributed
// by construction (each node decides locally from its own address), and
// the transport choice only decides whether "a link" is a channel send
// or a checksummed frame (internal/wire) on a socket.
//
// Fault injection applies at this boundary: a fault.Injector given to a
// transport drops, duplicates or corrupts individual crossings.
// Over TCP a corrupt outcome flips a byte of the encoded frame on the
// wire, so the receiver's CRC check — the real one, not a simulation —
// detects the damage: a plain link discards the frame, a resilient one
// severs the connection and replays from it.
package transport
