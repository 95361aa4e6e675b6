(** poll(2) for the socket receive path: select without the
    FD_SETSIZE ceiling. *)

(** Indices of the descriptors in the array that are readable, hung up
    or errored, ascending; [[]] after [timeout] seconds of nothing (or
    on EINTR — callers loop anyway).  A positive [timeout] is kept to
    the microsecond (rounded up), so a sub-millisecond wait stays one.
    A negative [timeout] waits indefinitely.  A zero [timeout] never blocks: it keeps the OCaml
    runtime lock and allocates nothing when no descriptor is ready. *)
val readable : Unix.file_descr array -> timeout:float -> int list

(** The soft RLIMIT_NOFILE budget for this process (clamped to
    [64, 2^20]; 1024 if unknown). *)
val nofile_limit : unit -> int
