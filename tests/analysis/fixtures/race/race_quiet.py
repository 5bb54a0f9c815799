"""Fixture: cross-object idioms the race pass accepts."""


class PoliteCPU(TimingSimpleCPU):
    def tick(self, pkt, tick):
        # Local state is ours to write.
        self._stall_until = tick
        # The port IS the boundary: sends are the sanctioned channel.
        latency = self.icache_port.send_atomic_fast(pkt.addr, pkt.size,
                                                    False)
        # Mutating the packet we were handed touches no domain state.
        pkt.latency = latency
        return latency

    def fast(self, addr):
        # The port accessor returns a mediated entry point.
        fn = self.icache_port.atomic_fast_fn()
        return fn(addr, 4, False)

    def functional(self, addr, size):
        # Physical memory is the shared data plane, not domain state.
        mem = self.system.memctrl.memory
        return mem.read(addr, size)

    def trap(self):
        # The pseudo-op/control plane is barrier-synchronized.
        self.system.pseudo_ops.handle(0)

    def peek(self):
        # Read-only cross-domain call: peek_tick never writes its
        # receiver, so there is nothing to race with.
        return self.system.l2cache.peek_tick()


class QuietHelperCache(Cache):
    def peek_tick(self):
        return self._lru_clock


class RoutingXBar(CoherentXBar):
    def route(self, requester):
        # Identity reads of peer/owner never leave the expression —
        # this is the crossbar's response-routing idiom.
        for port in self.cpu_side_ports:
            if port.peer is not None and port.peer.owner is requester:
                return port
        return None
