(** The batching layer: request coalescing as a stackable transport
    adapter, and the only code that knows the batch format.

    [wrap lower] returns a transport whose {!Transport.S.send_buffered}
    queues each message on its (src, dest) link and whose
    {!Transport.S.flush} ships [src]'s links, one group per link in
    ascending [dest] order.  A link also ships on its own once it
    buffers 4096 payload bytes; [send_buffered] then returns that
    group.  [Rmi_runtime.Fabric] stacks the layer over the raw backend,
    or over {!Reliable} when the config asks for both, so that one
    flushed group is one envelope, one seq/ack unit.

    A group of two or more messages is one {!Rmi_wire.Protocol} batch
    frame; a lone message ships as itself.  A batch is assembled in a
    gap-reserved pooled writer and shipped with [lower]'s
    [send_raw_writer]; received members are handed up as slices of the
    frame.  Frames that are not batches pass through untouched.  A
    garbled batch is dropped whole.

    Releases ({!Transport.S.release}): [lower] handed up one frame per
    batch, and the receiver releases each member.  The layer keeps, per
    machine, how many releases of each split batch still stop at it, so
    a k-member batch passes one release down, its last.  Counts are
    per frame, like [lower]'s, so which member is named does not
    matter.  A garbled batch is released at once, and so are the
    members a crash drops.  The table holds a batch until its members
    are released: a receiver that never releases grows it by one entry
    per split batch.

    Accounting: a flushed group counts {e one} [msgs_sent], the sum of
    its members' payload bytes and one [record_batch]; the cost model
    therefore charges one per-message latency per batch.  Batch framing
    overhead is excluded from [bytes_sent].  The group then leaves
    through [lower]'s uncharged [send_raw]/[send_raw_writer].

    On a [Proc_crashed] event from the backend, the crashed machine's
    unflushed groups and not-yet-received members are dropped.
    {!Transport.S.pending_anywhere} also counts what the layer holds,
    and {!Transport.S.idle} answers [Waiting] instead of [lower]'s
    [Dead] while it holds anything.  The unbuffered sends,
    [is_reliable], [peer_health] and [on_peer_event] pass through to
    [lower]; the control plane is the backend's, carried up by
    {!Transport.stack}. *)

(** [wrap lower] stacks the batching layer over [lower], which must not
    also be used directly afterwards. *)
val wrap : Transport.t -> Transport.t
