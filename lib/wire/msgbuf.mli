(** Growable byte buffers for building and reading RMI messages.

    A [writer] appends primitives in a compact little-endian format;
    a [reader] consumes them in the same order.  Integers use
    LEB128-style varints (with zigzag encoding for signed values) so
    that the small type tags and lengths that dominate RMI protocol
    traffic stay small on the wire — the compact encoding KaRMI [15]
    and the paper's Manta-JavaParty runtime use.

    The scalar and slice primitives allocate nothing on the OCaml heap
    (short of growing a writer's storage or raising): varints are
    coded in native-int arithmetic by non-closure loops, and a write
    checks capacity once per value ([write_int_slice] once per
    slice).  Slices cross in bulk: a double slice is one [memcpy]
    where float arrays are flat and the host little-endian (an element
    loop elsewhere, with the same bytes), and an int slice is read with
    one bounds check per value. *)

type writer
type reader

exception Underflow of string
(** Raised by read operations when the buffer is exhausted or a value
    is malformed. *)

(** {1 Writing} *)

val create_writer : ?initial_capacity:int -> unit -> writer

val clear : writer -> unit

(** Number of bytes written so far. *)
val length : writer -> int

val write_u8 : writer -> int -> unit
val write_bool : writer -> bool -> unit

(** Unsigned LEB128 varint; argument must be non-negative. *)
val write_uvarint : writer -> int -> unit

(** Zigzag-encoded signed varint ([(v lsl 1) lxor (v asr 62)]); full
    [int] range, at most 9 bytes. *)
val write_varint : writer -> int -> unit

(** 64-bit IEEE double, little endian. *)
val write_double : writer -> float -> unit

(** Length-prefixed UTF-8 bytes. *)
val write_string : writer -> string -> unit

(** [write_double_slice w a pos len] appends [len] doubles of [a]
    starting at [pos], each as {!write_double} would, without
    intermediate boxing: one [memcpy] of [8 * len] bytes on a
    little-endian host with flat float arrays, an element loop
    otherwise. *)
val write_double_slice : writer -> float array -> int -> int -> unit

(** [write_int_slice w a pos len] appends [len] ints of [a] starting
    at [pos], each as {!write_varint} would; it reserves the worst case
    (9 bytes per int) up front. *)
val write_int_slice : writer -> int array -> int -> int -> unit

(** [write_bytes w b off len] appends raw bytes of [b] (no length
    prefix) — the blit used to splice an already-encoded message into a
    frame in place. *)
val write_bytes : writer -> bytes -> int -> int -> unit

(** {1 Reserve / patch}

    The zero-copy framing primitives: append placeholder bytes with
    [reserve], write the payload after them, then back-fill lengths and
    checksums with the [patch_*] family.  Patched varints are always
    minimal (never padded), so a frame built this way is byte-identical
    to one built by copying the payload through [write_string]. *)

(** [reserve w n] appends [n] zero bytes and returns their start
    offset. *)
val reserve : writer -> int -> int

(** [patch_u8 w ~at v] overwrites the byte at absolute offset [at]. *)
val patch_u8 : writer -> at:int -> int -> unit

(** Encoded width of a value as a minimal unsigned varint. *)
val uvarint_size : int -> int

(** [patch_uvarint w ~at v] writes [v] as a minimal unsigned varint at
    absolute offset [at] (which must already be written) and returns
    its width. *)
val patch_uvarint : writer -> at:int -> int -> int

(** Snapshot the written bytes. *)
val contents : writer -> bytes

(** [sub w ~off ~len] snapshots a slice of the written bytes. *)
val sub : writer -> off:int -> len:int -> bytes

(** Direct access to the underlying storage (first [length] bytes are
    valid); used by transports to avoid a copy. *)
val unsafe_storage : writer -> bytes

(** {1 Reading} *)

(** [reader_of_bytes ?off ?len data] reads [len] bytes of [data]
    starting at [off] (default: all of [data]) without copying — batch
    sub-frames and envelope payloads are read in place this way. *)
val reader_of_bytes : ?off:int -> ?len:int -> bytes -> reader

(** [reader_of_writer ?off w] reads over [w]'s storage without
    copying, starting at [off] (default 0). *)
val reader_of_writer : ?off:int -> writer -> reader

(** [reset_reader r ?off ?len data] re-aims an existing reader at
    [data], avoiding a record allocation (pooled-reader discipline,
    mirroring [Codec.reset_rctx]). *)
val reset_reader : reader -> ?off:int -> ?len:int -> bytes -> unit

(** [reset_slice r data ~off ~len] is [reset_reader r ~off ~len data]
    without the optional arguments, which a caller would box on every
    call. *)
val reset_slice : reader -> bytes -> off:int -> len:int -> unit

(** Bytes remaining to be read. *)
val remaining : reader -> int

(** [skip r n what] advances past [n] bytes and returns their start
    offset in the underlying buffer ([what] labels the [Underflow] on
    truncation) — used to slice sub-frames without copying. *)
val skip : reader -> int -> string -> int

val read_u8 : reader -> int
val read_bool : reader -> bool

(** Unsigned varint of at most 10 bytes: an 11th byte raises
    [Underflow "uvarint: too long"], a truncated one [Underflow "u8"].
    Bits of an overlong encoding that do not fit an [int] are
    dropped. *)
val read_uvarint : reader -> int

(** Zigzag varint, with the same limits; an 11th byte raises
    [Underflow "uvarint64: too long"]. *)
val read_varint : reader -> int

val read_double : reader -> float
val read_string : reader -> string

(** [read_double_slice r a pos len] fills [a.(pos..pos+len-1)] with
    {!read_double}s, copied as {!write_double_slice} writes them.  It
    checks all [8 * len] bytes first: on [Underflow "double slice"]
    neither [a] nor the reader has changed. *)
val read_double_slice : reader -> float array -> int -> int -> unit

(** [read_int_slice r a pos len] fills [a.(pos..pos+len-1)] with
    {!read_varint}s, raising what {!read_varint} raises on the same
    bytes.  A value with at least 10 bytes left is decoded with one
    bounds check; within the last 9 bytes each byte is checked.  On
    [Underflow] the elements decoded so far have been stored. *)
val read_int_slice : reader -> int array -> int -> int -> unit

(** {1 Buffer pool}

    Free lists of writers and readers shared by a cluster so that
    steady-state calls reuse grown buffer storage instead of allocating
    fresh buffers per message — the copy-free, pool-backed send path of
    the paper's Manta/GM testbed.  Thread-safe; acquisitions are
    counted as {!Rmi_stats.Metrics} [pool_hits]/[pool_misses]. *)
module Pool : sig
  type buffers

  val create : metrics:Rmi_stats.Metrics.t -> buffers

  (** [acquire_writer p] returns a cleared writer (pooled or fresh). *)
  val acquire_writer : buffers -> writer

  (** [release_writer p w] returns [w] to the free list.  Its storage
      must no longer be referenced (snapshot with [sub]/[contents]
      anything that outlives the release). *)
  val release_writer : buffers -> writer -> unit

  (** [with_writer p f] brackets [acquire_writer]/[release_writer]
      around [f], releasing on exceptions too. *)
  val with_writer : buffers -> (writer -> 'a) -> 'a

  (** [acquire_reader p data ~off ~len] returns a pooled reader aimed
      at the [len] bytes of [data] from [off] (as {!reset_slice}).  The
      arguments are not optional, so the receive path, which calls it
      once per message, boxes none of them. *)
  val acquire_reader : buffers -> bytes -> off:int -> len:int -> reader

  val release_reader : buffers -> reader -> unit
end
