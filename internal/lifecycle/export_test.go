package lifecycle

// CountProg is the packet-counting XDP program, for the external soak test.
var CountProg = countProg
