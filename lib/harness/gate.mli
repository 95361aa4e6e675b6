(** A differential gate's report: one record that every harness gate
    (pipeline, crash, chaos, tiers, wirecost, alloc, load, transport)
    and the bench wire emitter build, and one renderer, JSON writer and
    verdict for all of them.

    A gate is a title, ordered top-level fields, a table of rows (plus
    optional further tables) and note lines.  A field is either a
    reported value or a named check.  The gate passes when no check
    has failed; {!failed} names the ones that did, which is what the
    command-line front ends print before exiting 1.

    {b JSON schema stability.}  CI greps the serialised form
    ([BENCH_*.json] and the chaos artifact) with [sed] regexes, so
    {!to_json}'s layout is part of the contract: the ["title"] key
    first (when the title is non-empty), then every field in order,
    then ["rows"] and each further table as an array with one object
    per line, keys in column order.  Floats print with the digits their
    cell carries, so a column's format is fixed by the code that builds
    it, not by the value. *)

type cell =
  | Str of string
  | Int of int
  | Float of int * float  (** digits after the point, value *)
  | Bool of bool
  | Ints of int list

type verdict =
  | Pass
  | Fail
  | Unenforced of string
      (** measured and reported but not gating; the string says why *)

type field =
  | Value of string * cell  (** reported only *)
  | Check of string * cell * verdict
      (** a named check; [cell] is what the report shows for it *)

type table = { columns : string list; rows : cell list list }

type t = {
  title : string;
  fields : field list;
  table : table;  (** serialised as ["rows"] *)
  extra : (string * table) list;  (** further tables, by name *)
  notes : string list;
}

(** [check name ok] is the common check: shown as [Bool ok], passing
    iff [ok]. *)
val check : string -> bool -> field

(** No check failed. *)
val ok : t -> bool

(** Names of the failed checks, in field order. *)
val failed : t -> string list

(** Title, tables, one line per field (checks tagged with their
    verdict), notes and — when the gate has checks — a closing
    [gate: PASS] or [gate: FAIL (names)] line. *)
val render : t -> string

val to_json : t -> string

(** The cell of the named field.  @raise Not_found *)
val value : t -> string -> cell

(** The verdict of the named check.  @raise Not_found *)
val verdict : t -> string -> verdict

(** The named column of the main table, top to bottom.
    @raise Not_found *)
val column : t -> string -> cell list
