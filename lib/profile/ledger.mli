(** Per-back-trace cost ledger.

    End-to-end attribution of protocol budget per trace id: messages
    and bytes by payload kind, frames, calls, retries, memo hits,
    timeouts, reports, and the sim-time critical path from the first
    §4.3 trigger to the §4.5 conclusion. Rolled up into
    messages-per-collected-cycle and bytes-per-collected-cycle — the
    Allen & Terriberry-style overhead figure a distributed cycle
    collector pays for each cycle it actually reclaims.

    Every quantity is derived from the deterministic simulation
    (counts and sim timestamps), so two same-seed runs produce
    byte-identical ledger JSON. *)

module Json = Dgc_telemetry.Json

type entry = {
  e_trace : string;
  mutable e_root : string;
  mutable e_started : float;  (** sim seconds; negative = unknown *)
  mutable e_concluded : float option;
  mutable e_outcome : string option;  (** ["garbage"] or ["live"] *)
  mutable e_frames : int;
  mutable e_calls : int;
  mutable e_retries : int;
  mutable e_memo_hits : int;
  mutable e_timeouts : int;
  mutable e_reports : int;
  e_msgs : (string, int ref) Hashtbl.t;  (** by payload kind *)
  e_bytes : (string, int ref) Hashtbl.t;  (** by payload kind *)
}

type t

val create : unit -> t

(** {1 Attribution feeds} *)

val on_start : t -> trace:string -> root:string -> at:float -> unit
(** First call wins; [at] is sim seconds. *)

val on_msg : t -> trace:string -> kind:string -> bytes:int -> unit
val on_frame : t -> trace:string -> unit
val on_call : t -> trace:string -> unit
val on_retry : t -> trace:string -> unit
val on_memo_hit : t -> trace:string -> unit
val on_timeout : t -> trace:string -> unit
val on_report : t -> trace:string -> unit

val on_conclude : t -> trace:string -> outcome:string -> at:float -> unit
(** Called when the initiator's single root frame concludes, at most
    once per trace (report re-sends never conclude); should it come
    twice, the first conclusion wins. *)

(** {1 Reading} *)

val find : t -> string -> entry option
val entries : t -> entry list
(** Sorted by trace id — deterministic. *)

val msg_total : entry -> int
val byte_total : entry -> int
val critical_path_ms : entry -> float option

val describe : entry -> string
(** One audit-quality evidence line naming every cost field. *)

type rollup = {
  r_traces : int;
  r_collected : int;  (** traces concluded Garbage *)
  r_live : int;
  r_msgs : int;
  r_bytes : int;
  r_frames : int;
  r_retries : int;
  r_memo_hits : int;
  r_msgs_per_cycle_milli : int;
      (** 1000 × total msgs / collected (integer; 0 when none collected) *)
  r_bytes_per_cycle_milli : int;
}

val rollup : t -> rollup

val to_json : t -> Json.t
(** Deterministic: entries sorted by trace id, kind maps sorted by key. *)

val validate : Json.t -> (unit, string) result
(** Shape-check a ledger section produced by {!to_json}. *)
