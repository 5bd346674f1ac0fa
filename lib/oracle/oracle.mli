(** Ground truth for verification.

    The oracle sees the whole distributed state at once — every heap,
    every agent variable, every undelivered message — and computes
    exact global reachability. It exists to check the collectors, so it
    deliberately shares none of their machinery: plain breadth-first
    search over the union of heaps.

    Roots: persistent roots of every site, application roots
    (variables and pins) of every site, and references carried by
    in-flight or parked messages. *)

open Dgc_prelude
open Dgc_heap
open Dgc_rts

exception Safety_violation of string

val live_set : Engine.t -> Oid.Set.t
(** All objects reachable from the global roots. *)

val garbage_set : Engine.t -> Oid.Set.t
(** All existing objects not in {!live_set}. *)

val garbage_count : Engine.t -> int

val cyclic_garbage_sites : Engine.t -> Site_id.Set.t
(** Sites that own at least one garbage object. *)

val check_would_free : Engine.t -> Site_id.t -> int list -> unit
(** [check_would_free eng site idxs]: the collector at [site] is about
    to free the objects with local indices [idxs]. Raises
    {!Safety_violation} naming the first live one, if any. With no
    indices it returns at once, without walking the global live set. *)

val assert_no_garbage : Engine.t -> unit
(** Raises {!Safety_violation} listing remaining garbage, for
    completeness tests run after quiescence. *)

val table_violations : Engine.t -> string list
(** Referential-integrity violations between heaps and ioref tables.
    Exact only in a quiesced system (no in-flight messages):
    - every cross-site field reference has an outref at its source
      site and a matching source entry in the target's inref;
    - every outref is backed by a source entry at the owner;
    - every inref source site actually holds a matching outref. *)
