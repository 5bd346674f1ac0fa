(** Local reachability over one site's object graph.

    "Locally reachable" follows §4.1, footnote 1: a reference [b] is
    locally reachable from reference [a] if there is a path of zero or
    more local references from the object [a] names to an object
    containing [b]. *)

open Dgc_prelude

type graph = {
  g_site : Site_id.t;
  g_dense : Dense.t;
      (** immutable export the traversals run over, captured when the
          graph is built: later heap mutations do not show through —
          build the graph immediately before computing over it, or at
          the start of a §6.2 trace window to compute over its
          snapshot. *)
}

val of_heap : Heap.t -> graph

val closure : graph -> from:Oid.t list -> Oid.Set.t * Oid.Set.t
(** [closure g ~from] is [(locals, remotes)]: the set of local objects
    reachable from the starting references by local paths, and the set
    of remote references contained in those objects (plus any starting
    references that are themselves remote). Starting references naming
    absent local objects are ignored. *)

val reaches : graph -> src:Oid.t -> dst:Oid.t -> bool
(** [reaches g ~src ~dst]: [dst] is locally reachable from [src]
    (including [src = dst]). Early-exit membership test — does not
    materialize the closure. *)
