(** The discrete-event simulation engine.

    Owns the sites, the event queue, the network model and the metrics
    registry; implements the base reference-listing protocol of §2
    (inserts with the §6.1.2 insert barrier, updates, reference
    transfer via mutator moves). Collector schemes and mutator agents
    plug in through {!Site.hooks} and the callbacks below.

    Determinism: all randomness comes from the engine's seeded
    generator, and simultaneous events fire in scheduling order, so a
    run is a pure function of the configuration and the installed
    behaviours.

    {2 Sharded engines}

    With [Config.shards > 1] the engine becomes one {e facade} (the
    handle returned by {!create}: it owns a coordinator event queue,
    the fault/chaos state and the worker pool) plus that many shard
    records, each owning a private event queue, seeded rng lane and
    telemetry buffers, with sites partitioned round-robin. The run
    loop alternates coordinator events (faults, redeliveries, agent
    programs, barrier-deferred trace applies — all serial) with
    conservative time windows in which every shard drains its own
    queue, concurrently across up to [Config.domains] domains; the
    window bound is the minimum cross-shard latency
    ({!Latency.min_bound}). Cross-shard sends buffer in the sender's
    outbox and integrate at the next barrier in (arrival, sender
    shard, sender sequence) order.

    Every public function below accepts the facade everywhere; calls
    made while a shard's window is executing resolve to that shard via
    domain-local state. Artifacts are a function of [(seed, shards)]
    alone — any domain count replays the identical run. [shards = 1]
    is the classic engine, bit-for-bit. A sharded engine refuses the
    single-control-flow observers (tracer, profiler, {!step_nth}), and
    its {!observe} callbacks see only coordinator-context events; read
    results back through
    {!merged_metrics}, {!merged_journal}, {!merged_series} and
    {!dump_flight}, which interleave per-shard buffers by simulated
    time. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap

type t

(** {1 Events}

    Every engine action is reported once, as one {!event}. A private
    fold writes the engine's own sinks from it — counters and
    histograms ([msg.*], [fault.*], [barrier.move_stalled]), flight
    records, journal lines and profile work — and then hands it to the
    {!observe} callbacks in registration order. DESIGN "Observability"
    tabulates what each event writes. *)

type msg = {
  src : Site_id.t;
  dst : Site_id.t;
  payload : Protocol.payload;
  capsule : int;
      (** numbers the logical send; every copy of it carries the same
          capsule. Minted from a plain counter (no randomness). *)
}

type event =
  | Sent of msg  (** the logical send, before deferral, loss or parking *)
  | Wired of msg  (** the message leaves alone, as one wire message *)
  | Batched of msg list
      (** a §4.7 deferred batch leaves as one wire message *)
  | Copied of msg  (** the duplication fault put one more copy in flight *)
  | Dropped of { msg : msg; reason : string }
      (** one copy destroyed without delivery: ["crashed"],
          ["partition"] or ["lossy"] *)
  | Parked of { msg : msg; reason : string }
      (** a base message held until ["partition"] heals or the
          ["crash"]ed destination recovers *)
  | Delivered of msg
      (** one copy is about to dispatch; observers run {e before} the
          handler, so anything it sends is causally after *)
  | Unstalled of { site : Site_id.t; waited : Sim_time.t }
      (** the last insert a carried reference needed was acknowledged at
          [site]: the §6.1.2 insert barrier releases the move after
          [waited], and the move-ack goes out *)
  | Timer_armed of {
      id : int;
      at : Sim_time.t;
      label : unit -> Site_id.t * string;
    }
      (** a [?label]led {!schedule}: [label] names the owning site and
          a stable key, and is forced only by an observer that asks *)
  | Timer_fired of int  (** that timer is about to run *)
  | Partitioned of Site_id.t list list
  | Healed
  | Crashed of Site_id.t
  | Recovered of { site : Site_id.t; was_crashed : bool }
  | Logged of Journal.entry
      (** a journal line; made only while a journal is attached *)
  | Stepped
      (** an event finished executing ({!step}, {!step_nth},
          {!run_until}/{!run_for}; on a sharded engine also after each
          window and its barrier) *)

val observe : t -> (event -> unit) -> unit
(** Append an observer. Observers run after the engine's own sinks, in
    registration order, and cannot be removed. [Sim.make] registers
    the [Config.Check_step] invariant check first. On a sharded facade
    they see coordinator-context events only: steps, faults, barrier
    work and facade journal lines; events inside a shard's window reach
    only that shard's sinks. Exceptions raised by an observer
    propagate out of the engine call that reported the event. *)

exception Metrics_bucket_mismatch of string
(** Raised under [Config.Check_step] when a [Metrics.hist_observe]
    call passes a [?buckets] spec disagreeing with the histogram's
    existing bounds. Under other check levels the mismatch becomes a
    Warn entry (cat ["metrics"]) in the attached journal. *)

val create : Config.t -> t
val config : t -> Config.t
val sites : t -> Site.t array
val site : t -> Site_id.t -> Site.t
val now : t -> Sim_time.t
val rng : t -> Rng.t
val metrics : t -> Metrics.t

val attach_journal : t -> Journal.t -> unit
(** Attach a bounded event journal; the runtime and collectors record
    faults, traces, sweeps and verdicts into it. *)

val journal : t -> Journal.t option

val attach_tracer : t -> Dgc_telemetry.Tracer.t -> unit
(** Attach a span tracer; the collectors record back-trace activation
    frames, leaps, reports and timeouts into it as causal spans. *)

val tracer : t -> Dgc_telemetry.Tracer.t option

val attach_flight : t -> Dgc_telemetry.Flight.t -> unit
(** Attach a flight recorder. The engine records message sends,
    deliveries, drops (with the drop reason), crash/recover/partition
    faults, journal entries and tracer span edges into its binary
    rings. Wiring works in any attachment order: the tracer tap is
    (re)installed whenever both halves are present. [Sim.make]
    attaches one automatically when [Config.flight_capacity > 0]. *)

val flight : t -> Dgc_telemetry.Flight.t option

val dump_flight : t -> reason:string -> Dgc_telemetry.Json.t option
(** Snapshot the flight rings into a [dgc.flight/1] document, or
    [None] when no recorder is attached. Still-open tracer spans are
    first closed with synthetic [aborted] ends ({!Tracer.abort_open});
    the number closed is added to the [tracer.aborted_spans] metric.
    Campaign failures, watchdog verdicts and [dgc-sim --dump-flight]
    all come through here. *)

val attach_profile : t -> Dgc_profile.Profile.t -> unit
(** Attach the deterministic sim-cost profiler. The engine opens a
    [deliver;<kind>] scope around every handler dispatch and attributes
    work units (events, deliveries, msgs_sent, bytes) to the innermost
    open scope; the collector layers add local-trace phase scopes and
    frame/visit work, and feed the profile's cost {!Dgc_profile.Ledger}
    per back trace. Like the flight recorder it draws no randomness and
    schedules nothing, so runs are event-identical with it on or off.
    [Sim.make] attaches one automatically when [Config.profile]. *)

val profile : t -> Dgc_profile.Profile.t option

val profile_work : t -> string -> int -> unit
(** Attribute work units to the attached profiler's innermost open
    scope; no-op without a profiler. *)

val series : t -> Dgc_telemetry.Series.t
(** The engine's always-on time-series registry (windowed counters and
    gauges, simulated-time buckets). Unlike the flight recorder it is
    unconditionally present: recording costs a hash-table update and
    draws no randomness. *)

val series_add : t -> string -> int -> unit
(** Add to a counter series at the current simulated time. *)

val series_incr : t -> string -> unit
(** [series_add t name 1]. *)

val series_set : t -> string -> float -> unit
(** Set a gauge series at the current simulated time. *)

val jlog :
  t ->
  ?level:Journal.level ->
  cat:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Report a journal line as a {!Logged} event — the journal ring, its
    flight mirror and the observers — while a journal is attached; a
    cheap no-op, formatting nothing, when none is. [level] defaults to
    [Info]. Every engine journal write goes through here. *)

(** {1 Scheduling and messaging} *)

val schedule :
  t ->
  ?label:(unit -> Site_id.t * string) ->
  delay:Sim_time.t ->
  (unit -> unit) ->
  unit
(** Schedule a thunk after [delay]. [?label] marks it as a protocol
    timer, reported as {!Timer_armed} now and {!Timer_fired} when it
    runs: a thunk producing the owning site and a stable key (e.g.
    ["back_call/<trace>/<site>/<seq>"]), forced only by an observer. *)

val send : t -> src:Site_id.t -> dst:Site_id.t -> Protocol.payload -> unit
(** Sample a latency and schedule delivery. Base-protocol messages to a
    crashed destination are parked and delivered on recovery; [Ext]
    messages to a crashed destination, and [Ext] messages unlucky under
    [cfg.ext_drop], are dropped (and counted). *)

val fresh_token : t -> int

(** {1 Mutator support} *)

val move_agent :
  t -> agent:int -> src:Site_id.t -> dst:Site_id.t -> refs:Oid.t list -> unit
(** Relocate an agent: pins [refs] at [src] (releasing on the eventual
    move-ack, which arrives only after every needed insert was
    acknowledged — the insert barrier), then ships a [Move]. A move to
    the current site completes synchronously. *)

val set_agent_arrival : t -> (agent:int -> dst:Site_id.t -> unit) -> unit
(** Called when a [Move] is delivered, after table bookkeeping and the
    arrival barrier, before the insert round-trips complete. *)

val set_extra_roots : t -> (Site_id.t -> Oid.t list) -> unit
(** Contribute application roots (mutator variables) per site. *)

val app_roots : t -> Site_id.t -> Oid.t list
(** Application roots of a site: contributed variables plus pinned
    local references. May include remote references (variables holding
    remote objects); local traces treat those as outrefs to clean. *)

(** {1 Fault injection} *)

val crash : t -> Site_id.t -> unit
val recover : t -> Site_id.t -> unit

val set_chaos_drop : t -> float option -> unit
(** Override the configured [ext_drop] probability for collector
    messages ([None] restores the configuration). The chaos injector
    drives loss bursts through this. *)

val set_chaos_dup : t -> float option -> unit
(** Override the configured [ext_dup] duplicate-delivery probability:
    an affected collector message is delivered once more with an
    independent latency. Base-protocol messages are never duplicated. *)

val set_latency_factor : t -> float -> unit
(** Multiply every sampled message latency by this factor (default
    [1.0]); the chaos injector models latency storms with it. Clamped
    to be non-negative. *)

val partition : t -> Site_id.t list list -> unit
(** Split the network into the given groups (sites not listed form one
    implicit extra group). Base-protocol messages across a partition
    boundary are parked and delivered on {!heal}; collector ([Ext])
    messages across the boundary are dropped — back tracing reads the
    silence as Live via its timeouts (§4.6). *)

val heal : t -> unit
(** Remove all partitions; parked cross-partition messages flow. *)

val reachable : t -> Site_id.t -> Site_id.t -> bool

(** {1 Oracle support} *)

val in_flight_refs : t -> Oid.t list
(** References carried by undelivered (or parked) messages. *)

(** {1 Running} *)

val start_gc_schedule : t -> unit
(** Begin periodic local traces at every site: each site's
    [h_run_local_trace] fires every [trace_interval] (±jitter),
    staggered across sites. Call once. *)

val stop_gc_schedule : t -> unit
(** No further periodic traces are scheduled (pending other events
    still run). *)

val step : t -> bool
(** Execute the next event; false if the queue is empty. *)

val step_nth : t -> int -> bool
(** Execute the [n]-th earliest pending event instead of the earliest
    ([step_nth t 0 = step t]); false if fewer than [n+1] events are
    pending. The clock never moves backwards: skipped earlier events
    run later at the (greater) current time. This is the schedule
    explorer's hook for exploring event-queue interleavings. *)

val pending : t -> int
(** Number of pending events. *)

val peek_time : t -> Sim_time.t option
val nth_time : t -> int -> Sim_time.t option
(** Timestamp of the earliest / [n]-th earliest pending event. *)

val run_until : t -> Sim_time.t -> unit
(** Process events with timestamps up to the given absolute time;
    [now] afterwards equals that time. *)

val run_for : t -> Sim_time.t -> unit
val trace_rounds_completed : t -> int
(** Minimum over sites of completed local traces. *)

(** {1 Sharding} *)

val sharded : t -> bool
(** True iff this engine was created with [Config.shards > 1]. *)

val at_barrier : t -> (unit -> unit) -> unit
(** Run a thunk at the next synchronization barrier, on the
    coordinator, after this window's shard tasks have all finished —
    the collectors defer trace application, oracle checks and
    back-trace triggering through this so heavy in-window work can run
    concurrently while everything that touches cross-site state stays
    serial. From a shard's window the thunk is queued (per shard,
    FIFO; barrier queues drain in shard order); from coordinator
    context — including a classic engine — it runs immediately. *)

val shard_stats : t -> (int * int * int) option
(** [(windows, cross_shard_msgs, max_queue_skew)] for a sharded
    engine: synchronization windows executed, messages integrated
    across shard boundaries, and the largest per-window spread between
    the busiest and idlest shard (events drained). [None] when
    [shards = 1]. The same numbers land in the facade's metrics as
    [window.count] and [window.cross_shard_msgs]. *)

val teardown : t -> unit
(** Join the worker-domain pool, if one was started. Idempotent; safe
    on classic engines (no-op). Long-lived processes that create many
    sharded engines should call this when done with each (OCaml caps
    live domains); any pool still alive is joined at process exit. *)

val merged_metrics : t -> Metrics.t
(** Classic: the engine's registry itself. Sharded: a fresh registry
    folding the facade's and every shard's ({!Metrics.merge_into} —
    counters add, same-bounds histograms add bucket-wise), merged in
    record order, so it is deterministic for a deterministic run. *)

val merged_journal : t -> Journal.t option
(** Classic: the attached journal. Sharded: a fresh journal holding
    the facade's and every shard's retained entries interleaved by
    (sim time, record, ring position), sized to evict nothing. *)

val merged_series : t -> Dgc_telemetry.Series.t
(** Classic: the engine's registry itself. Sharded: a fresh registry
    folding all records' series ({!Series.merge_into} — bucket values
    add for counters and gauges alike, each shard gauging a disjoint
    population). *)
