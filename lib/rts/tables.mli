(** Per-site inref and outref tables (§2). *)

open Dgc_prelude
open Dgc_heap

type t

val create : Site_id.t -> t
val site : t -> Site_id.t

(** {1 Inrefs} *)

val find_inref : t -> Oid.t -> Ioref.inref option
val ensure_inref : t -> Oid.t -> Ioref.inref
(** Find or create (fresh, no sources). Raises [Invalid_argument] if
    the oid is not local to this site. *)

val remove_inref : t -> Oid.t -> unit

val iter_inrefs : t -> (Ioref.inref -> unit) -> unit
(** Unspecified order, no allocation — prefer this on hot paths where
    order is not observable (closures, mark sets, flag resets). *)

val inrefs : t -> Ioref.inref list
(** Sorted by target oid. Use where traversal order is observable:
    pretty-printing, snapshots, conformance checks, and anything that
    feeds deterministic statistics or tie-breaks.

    The view is cached and shared: until an {!ensure_inref} creates an
    entry or a {!remove_inref} deletes one, every call returns the same
    (physically equal) list and allocates nothing. Its elements are the
    live records, so their mutable fields read current values. *)

val inref_count : t -> int

(** {1 Outrefs} *)

val find_outref : t -> Oid.t -> Ioref.outref option
val ensure_outref : t -> ?dist:int -> Oid.t -> Ioref.outref * bool
(** Find or create; the boolean is true when the outref was created
    (the caller must then run the insert protocol). Raises
    [Invalid_argument] if the oid is local to this site. *)

val remove_outref : t -> Oid.t -> unit

val iter_outrefs : t -> (Ioref.outref -> unit) -> unit
(** Unspecified order; see {!iter_inrefs}. *)

val outrefs : t -> Ioref.outref list
(** Sorted by target oid, cached and shared until membership changes;
    see {!inrefs}. *)

val outref_count : t -> int

val approx_bytes : t -> int
(** Estimated bytes held by the ioref tables under a fixed size model
    (8-byte words; record headers plus per-element costs for source
    lists, visited sets and in/outsets). Deterministic across runs —
    the [bytes_resident{site=N}] gauge and the bench gates rely on
    that — but an estimate, not a heap measurement. *)

val pp : Format.formatter -> t -> unit
