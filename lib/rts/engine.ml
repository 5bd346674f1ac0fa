open Dgc_prelude
open Dgc_simcore
open Dgc_heap
module Tel = Dgc_telemetry
module Prof = Dgc_profile.Profile

type move_wait = {
  mutable remaining : int;
  reply_to : Site_id.t;
  wait_since : Sim_time.t;  (** insert-barrier stall start (§6.1.2) *)
}

(* One logical send. Every copy the network makes of it (duplication,
   parking, redelivery) is this same value, so [capsule] — minted from
   a plain per-record counter that draws no randomness — names the send
   across all of its fates. *)
type msg = {
  src : Site_id.t;
  dst : Site_id.t;
  payload : Protocol.payload;
  capsule : int;
}

type event =
  | Sent of msg
  | Wired of msg
  | Batched of msg list
  | Copied of msg
  | Dropped of { msg : msg; reason : string }
  | Parked of { msg : msg; reason : string }
  | Delivered of msg
  | Unstalled of { site : Site_id.t; waited : Sim_time.t }
  | Timer_armed of {
      id : int;
      at : Sim_time.t;
      label : unit -> Site_id.t * string;
    }
  | Timer_fired of int
  | Partitioned of Site_id.t list list
  | Healed
  | Crashed of Site_id.t
  | Recovered of { site : Site_id.t; was_crashed : bool }
  | Logged of Journal.entry
  | Stepped

(* A collector message crossing a shard boundary inside a window: the
   sender buffers it here (with the latency already sampled from its
   own lane) and the coordinator integrates all outboxes at the next
   barrier, globally sorted by (arrival, sender shard, sender seq) —
   a deterministic merge independent of domain interleaving. *)
type outmsg = {
  om_at : Sim_time.t;
  om_src_shard : int;
  om_seq : int;
  om_dst_shard : int;
  om_refs : Oid.t list;
  om_run : unit -> unit;
}

type t = {
  cfg : Config.t;
  rng : Rng.t;
  metrics : Metrics.t;
  queue : (unit -> unit) Event_queue.t;
  mutable now : Sim_time.t;
  sites : Site.t array;
  (* --- sharding (Config.shards > 1) ---------------------------------
     A sharded engine is one facade record (the coordinator: owns the
     global barrier queue, the canonical chaos/fault state and the
     worker pool) plus [cfg.shards] shard records sharing [sites] and
     [cfg] but owning their own queue, RNG lane, metrics, series,
     journal and flight buffers. Classic engines ([shards = 1]) keep
     every one of these fields inert: [shard_id = -1], [shards = [||]],
     [master = None], and id minting strides by 1 from residue 0 —
     byte-identical to the pre-sharding engine. *)
  mutable shards : t array;  (** facade: the shard records *)
  shard_id : int;  (** [>= 0] in shard records, [-1] otherwise *)
  mutable master : t option;  (** shard records: the facade *)
  shard_of : int array;  (** site -> owning shard (facade) *)
  outbox : outmsg list ref;
  mutable out_seq : int;
  barrier_q : (unit -> unit) Queue.t;
  id_stride : int;  (** token/msg ids advance by this; residue at birth *)
  mutable pool : Domain_pool.t option;
  mutable drained : int;  (** events run in the current window *)
  mutable win_count : int;
  mutable xmsg_count : int;
  mutable max_skew : int;
  mutable next_token : int;
  mutable next_msg_id : int;
  in_flight : (int, Oid.t list) Hashtbl.t;
  parked : (Site_id.t, msg list ref) Hashtbl.t;
  (* per destination site: (ref being inserted -> waiting move token) *)
  awaiting_insert : (Site_id.t * Oid.t, int) Hashtbl.t;
  move_waits : (int, move_wait) Hashtbl.t;
  mutable agent_arrival : agent:int -> dst:Site_id.t -> unit;
  mutable extra_roots : Site_id.t -> Oid.t list;
  mutable gc_running : bool;
  mutable partition_of : int array;  (** site -> partition group *)
  mutable part_parked : msg list;
  (* §4.7 deferral: queued collector messages per (src, dst) pair *)
  defer_queues : (Site_id.t * Site_id.t, msg list ref) Hashtbl.t;
  (* chaos fault channels: runtime overrides of the configured Ext
     lossiness/duplication, plus a multiplier on sampled latencies.
     [None]/[1.0] defer to the configuration — the extra randomness is
     only drawn when a channel is actually hot, so runs with the
     channels cold are bit-identical to runs without them. *)
  mutable chaos_drop : float option;
  mutable chaos_dup : float option;
  mutable latency_factor : float;
  mutable journal : Journal.t option;
  mutable tracer : Dgc_telemetry.Tracer.t option;
  mutable flight : Tel.Flight.t option;
  mutable profile : Prof.t option;
  series : Tel.Series.t;
  mutable next_capsule : int;
  mutable next_timer : int;
  mutable observers : (event -> unit) list;
}

exception Metrics_bucket_mismatch of string

(* --- shard context ----------------------------------------------------

   The domain executing a shard's window publishes that shard here, so
   every [Engine] call library code makes during the window — which
   still holds the facade handle — resolves to the executing shard.
   The slot is unset outside windows: calls from the main thread or
   from coordinator (barrier) events act on the facade. *)
let dls_shard : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sharded t = Array.length t.shards > 0

(* The record a call should act on: classic engines and shard records
   are already the context; a facade redirects to the shard the
   calling domain is currently executing, if any. *)
let ctx t =
  if not (sharded t) then t
  else match !(Domain.DLS.get dls_shard) with Some s -> s | None -> t

(* The facade of a shard record (itself otherwise): canonical home of
   the fault/chaos state, the mutator hooks and the GC-running flag.
   All of these are written only between windows, so in-window reads
   from any shard are stable and race-free. *)
let root t = match t.master with Some m -> m | None -> t

let all_records t = t :: Array.to_list t.shards

let mk_record cfg ~rng ~sites ~shard_id ~shard_of ~id_stride ~id_residue =
  {
    cfg;
    rng;
    metrics = Metrics.create ~sample_cap:4096 ();
    queue = Event_queue.create ();
    now = Sim_time.zero;
    sites;
    shards = [||];
    shard_id;
    master = None;
    shard_of;
    outbox = ref [];
    out_seq = 0;
    barrier_q = Queue.create ();
    id_stride;
    pool = None;
    drained = 0;
    win_count = 0;
    xmsg_count = 0;
    max_skew = 0;
    next_token = id_residue;
    next_msg_id = id_residue;
    in_flight = Hashtbl.create 64;
    parked = Hashtbl.create 8;
    awaiting_insert = Hashtbl.create 16;
    move_waits = Hashtbl.create 16;
    agent_arrival = (fun ~agent:_ ~dst:_ -> ());
    extra_roots = (fun _ -> []);
    gc_running = false;
    partition_of = Array.make cfg.Config.n_sites 0;
    part_parked = [];
    defer_queues = Hashtbl.create 16;
    chaos_drop = None;
    chaos_dup = None;
    latency_factor = 1.0;
    journal = None;
    tracer = None;
    flight = None;
    profile = None;
    series = Tel.Series.create ();
    next_capsule = 0;
    next_timer = 0;
    observers = [];
  }

let now_s t = Sim_time.to_seconds t.now

(* Work-unit attribution to the profiler's innermost open scope; a
   single [match] when no profiler is attached, so the off path costs
   nothing and — since the profiler draws no randomness and schedules
   no events — the schedule is identical either way. *)
let profile_work t u n =
  match t.profile with None -> () | Some p -> Prof.work p u n

(* --- the event fold ----------------------------------------------------

   Every engine action is reported once, as an [event], to [note] on the
   record it happened on. [note] writes the engine's own sinks —
   counters, histograms, flight records, journal lines and profile work
   — in the order the flight ring pins, then hands the event to the
   record's observers in registration order. Shard records have no
   observers: on a sharded engine only coordinator-context events
   (steps, faults, barrier work, facade journal lines) reach them. *)

let flight_msg t kind ~site ?payload m =
  match t.flight with
  | None -> ()
  | Some f ->
      Tel.Flight.record f ~site:(Site_id.to_int site) ~at:(now_s t) ~kind
        ~a:(Site_id.to_int m.src) ~b:(Site_id.to_int m.dst)
        ~tag:(Protocol.kind m.payload) ?payload ()

let flight_fault t ~tag detail =
  match t.flight with
  | None -> ()
  | Some f ->
      Tel.Flight.record f ~site:(-1) ~at:(now_s t) ~kind:Tel.Flight.Fault ~tag
        ~payload:detail ()

(* The wire count of one payload, alone or inside a batch; [msg.total]
   counts wire messages, so a §4.7 batch adds it once. *)
let count_payload t m =
  let kind = Protocol.kind m.payload in
  let bytes = Protocol.approx_bytes m.payload in
  Metrics.incr t.metrics ("msg." ^ kind);
  Metrics.add t.metrics "msg.bytes" bytes;
  Metrics.hist_observe t.metrics ("msg.size." ^ kind) (float_of_int bytes);
  profile_work t "msgs_sent" 1;
  profile_work t "bytes_sent" bytes

let rec notify ev = function
  | [] -> ()
  | f :: fs ->
      f ev;
      notify ev fs

let rec note t ev =
  (match ev with
  | Sent m -> flight_msg t Tel.Flight.Send ~site:m.src m
  | Wired m ->
      Metrics.incr t.metrics "msg.total";
      count_payload t m
  | Batched msgs ->
      Metrics.incr t.metrics "msg.total";
      Metrics.incr t.metrics "msg.batches";
      List.iter (count_payload t) msgs
  | Copied _ -> Metrics.incr t.metrics "msg.duplicated"
  | Dropped { msg = m; reason } ->
      Metrics.incr t.metrics ("msg.dropped." ^ reason);
      flight_msg t Tel.Flight.Drop ~site:m.src ~payload:reason m
  | Parked { msg = m; reason } -> (
      (* A parked Move or Move_ack stalls the §6.1.2 insert barrier:
         the sender keeps its pins until the ack lands, which can
         starve mutators for the whole partition/outage. Journal the
         cause so the watchdog's starvation verdicts can name it. *)
      match m.payload with
      | Protocol.Move { token; _ } ->
          Metrics.incr t.metrics "barrier.move_stalled";
          jlog t ~level:Journal.Warn ~cat:"barrier"
            "move (token %d) parked by %s: insert barrier stalled" token reason
      | Protocol.Move_ack { token } ->
          Metrics.incr t.metrics "barrier.move_stalled";
          jlog t ~level:Journal.Warn ~cat:"barrier"
            "move-ack (token %d) parked by %s: sender pins held" token reason
      | _ -> ())
  | Delivered m -> (
      flight_msg t Tel.Flight.Deliver ~site:m.dst m;
      match t.profile with
      | Some p ->
          Prof.work p "deliveries" 1;
          Prof.work p "bytes_delivered" (Protocol.approx_bytes m.payload)
      | None -> ())
  | Unstalled { site = s; waited } ->
      let stall_ms = 1000. *. Sim_time.to_seconds waited in
      Metrics.hist_observe t.metrics "barrier.move_stall_ms" stall_ms;
      Metrics.hist_observe t.metrics
        (Site.metric_label t.sites.(Site_id.to_int s) "barrier.move_stall_ms")
        stall_ms
  | Partitioned groups ->
      let n = List.length groups in
      flight_fault t ~tag:"partition" (Printf.sprintf "%d groups" n);
      jlog t ~level:Journal.Warn ~cat:"fault" "partition into %d groups" n;
      Metrics.incr t.metrics "fault.partition"
  | Healed ->
      flight_fault t ~tag:"heal" "";
      jlog t ~level:Journal.Warn ~cat:"fault" "heal";
      Metrics.incr t.metrics "fault.heal"
  | Crashed id ->
      flight_fault t ~tag:"crash" (string_of_int (Site_id.to_int id));
      jlog t ~level:Journal.Warn ~cat:"fault" "crash %a" Site_id.pp id;
      Metrics.incr t.metrics "fault.crash"
  | Recovered { site; was_crashed } ->
      flight_fault t ~tag:"recover" (string_of_int (Site_id.to_int site));
      jlog t ~level:Journal.Warn ~cat:"fault" "recover %a" Site_id.pp site;
      if was_crashed then Metrics.incr t.metrics "fault.recover"
  | Logged e -> (
      (match t.journal with Some j -> Journal.push j e | None -> ());
      match t.flight with
      | Some f ->
          Tel.Flight.record f ~site:(-1)
            ~at:(Sim_time.to_seconds e.Journal.at) ~kind:Tel.Flight.Journal
            ~a:(Journal.level_rank e.Journal.level) ~tag:e.Journal.cat
            ~payload:e.Journal.text ()
      | None -> ())
  | Timer_armed _ | Timer_fired _ | Stepped -> ());
  notify ev t.observers

(* A journal line exists only while a journal is attached: without
   one, nothing is formatted and no [Logged] event is made. *)
and jlog :
      'a.
      t ->
      ?level:Journal.level ->
      cat:string ->
      ('a, Format.formatter, unit, unit) format4 ->
      'a =
 fun t ?(level = Journal.Info) ~cat fmt ->
  match t.journal with
  | Some _ ->
      Format.kasprintf
        (fun text -> note t (Logged { Journal.at = t.now; level; cat; text }))
        fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let observe t f = t.observers <- t.observers @ [ f ]

(* A ?buckets spec that disagrees with a histogram's existing bounds
   is a measurement bug: fail fast under the per-step sanitizer,
   otherwise leave a Warn in the journal. *)
let wire_bucket_mismatch cfg t =
  Metrics.set_on_bucket_mismatch t.metrics (fun msg ->
      if cfg.Config.check_level = Config.Check_step then
        raise (Metrics_bucket_mismatch msg)
      else jlog t ~level:Journal.Warn ~cat:"metrics" "%s" msg)

let create cfg =
  let sites =
    Array.init cfg.Config.n_sites (fun i -> Site.create (Site_id.of_int i))
  in
  let nshards = cfg.Config.shards in
  let t =
    if nshards <= 1 then
      (* The classic engine, bit-for-bit: one queue, one rng stream,
         ids striding by 1 from 0. *)
      mk_record cfg
        ~rng:(Rng.create ~seed:cfg.Config.seed)
        ~sites ~shard_id:(-1) ~shard_of:[||] ~id_stride:1 ~id_residue:0
    else begin
      (* Facade + shards. Ids stride by [shards + 1] with a distinct
         residue per minter, so tokens and message ids stay globally
         unique without any cross-record coordination; each shard draws
         from its own seeded rng lane; sites go round-robin. *)
      let stride = nshards + 1 in
      let facade =
        mk_record cfg
          ~rng:(Rng.create ~seed:cfg.Config.seed)
          ~sites ~shard_id:(-1)
          ~shard_of:(Array.init cfg.Config.n_sites (fun i -> i mod nshards))
          ~id_stride:stride ~id_residue:nshards
      in
      facade.shards <-
        Array.init nshards (fun k ->
            let sh =
              mk_record cfg
                ~rng:(Rng.stream ~seed:cfg.Config.seed ~lane:k)
                ~sites ~shard_id:k ~shard_of:[||] ~id_stride:stride
                ~id_residue:k
            in
            sh.master <- Some facade;
            sh);
      facade
    end
  in
  List.iter (wire_bucket_mismatch cfg) (all_records t);
  t

(* Mirror tracer span edges into the flight recorder's rings. Wired
   whenever both halves are attached (in either order). *)
let wire_spans t =
  match (t.flight, t.tracer) with
  | Some f, Some tr ->
      let span_edge kind (sp : Tel.Tracer.span) =
        let b =
          match kind with
          | Tel.Flight.Span_start ->
              Option.value ~default:(-1) sp.Tel.Tracer.parent
          | _ -> if List.mem_assoc "aborted" sp.Tel.Tracer.attrs then 1 else 0
        in
        let at =
          match kind with
          | Tel.Flight.Span_start -> sp.Tel.Tracer.start
          | _ -> Option.value ~default:sp.Tel.Tracer.start sp.Tel.Tracer.finish
        in
        Tel.Flight.record f ~site:sp.Tel.Tracer.site ~at ~kind
          ~a:sp.Tel.Tracer.id ~b ~tag:sp.Tel.Tracer.name
          ~payload:sp.Tel.Tracer.trace ()
      in
      Tel.Tracer.set_span_hooks tr
        ~on_start:(span_edge Tel.Flight.Span_start)
        ~on_finish:(span_edge Tel.Flight.Span_end)
  | _ -> ()

let attach_journal t j =
  t.journal <- Some j;
  (* Shards journal into private rings of the same capacity; the
     [merged_journal] accessor interleaves them by sim time. *)
  if sharded t then
    Array.iter
      (fun sh ->
        sh.journal <- Some (Journal.create ~capacity:(Journal.capacity j) ()))
      t.shards

let journal t = (ctx t).journal

let attach_tracer t tr =
  (* Span state is a single mutable web threaded through every frame
     and trace; there is no per-shard split that keeps parent edges
     meaningful, so a sharded engine runs untraced. *)
  if sharded t then
    jlog t ~level:Journal.Warn ~cat:"shard"
      "tracer attach ignored: spans are not supported on a sharded engine"
  else begin
    t.tracer <- Some tr;
    wire_spans t
  end

let tracer t = t.tracer

let attach_flight t f =
  t.flight <- Some f;
  wire_spans t;
  (* Per-shard rings of the same per-site capacity; [dump_flight]
     re-records a merged, sim-time-sorted dump. *)
  if sharded t then
    Array.iter
      (fun sh ->
        sh.flight <-
          Some
            (Tel.Flight.create
               ~capacity:(Tel.Flight.capacity f)
               ~n_sites:(Tel.Flight.n_sites f) ()))
      t.shards

let flight t = (ctx t).flight

let attach_profile t p =
  (* The profiler's scope stack is inherently per-control-flow; its
     cost model is exercised at shards=1. *)
  if sharded t then
    jlog t ~level:Journal.Warn ~cat:"shard"
      "profiler attach ignored: not supported on a sharded engine"
  else t.profile <- Some p

let profile t = t.profile

let series t = (ctx t).series

let series_add t name n =
  let t = ctx t in
  Tel.Series.add t.series name ~at:(now_s t) n

let series_incr t name =
  let t = ctx t in
  Tel.Series.incr t.series name ~at:(now_s t)

let series_set t name v =
  let t = ctx t in
  Tel.Series.set t.series name ~at:(now_s t) v

(* Chaos knobs and the latency factor live on the facade (set from
   fault events, which run between windows), so every shard sees one
   coherent value for the whole window. *)
let set_chaos_drop t p = (root t).chaos_drop <- p
let set_chaos_dup t p = (root t).chaos_dup <- p
let set_latency_factor t f = (root t).latency_factor <- Float.max 0. f

let ext_drop_p t =
  let r = root t in
  match r.chaos_drop with Some p -> p | None -> r.cfg.Config.ext_drop

let ext_dup_p t =
  let r = root t in
  match r.chaos_dup with Some p -> p | None -> r.cfg.Config.ext_dup

let sample_latency t =
  let l = Latency.sample t.rng t.cfg.Config.latency in
  let factor = (root t).latency_factor in
  if factor = 1.0 then l
  else Sim_time.of_seconds (Sim_time.to_seconds l *. factor)

let config t = t.cfg
let sites t = t.sites
let site t id = t.sites.(Site_id.to_int id)
let now t = (ctx t).now
let rng t = (ctx t).rng
let metrics t = (ctx t).metrics

(* Snapshot the flight rings into a dgc.flight/1 document. Dangling
   spans are closed first with synthetic [aborted] ends so the span
   edges in the ring (and any later Perfetto export) are complete.

   Sharded engines merge the facade's and every shard's rings first:
   each ring's events are interleaved by (sim time, record rank, ring
   index) — a total order independent of the domain count — and
   re-recorded into a fresh recorder, whose dump is then serialized.
   The merged ring can evict differently from a classic run's (it is
   still one ring per site of the same capacity), but identically
   across runs of the same sharded timeline, which is the bar. *)
let dump_flight t ~reason =
  match t.flight with
  | None -> None
  | Some f ->
      (match t.tracer with
      | Some tr ->
          let n = Tel.Tracer.abort_open tr ~at:(now_s t) in
          if n > 0 then Metrics.add t.metrics "tracer.aborted_spans" n
      | None -> ());
      if not (sharded t) then
        Some (Tel.Flight.to_json (Tel.Flight.dump f ~reason ~at:(now_s t)))
      else begin
        let merged =
          Tel.Flight.create ~capacity:(Tel.Flight.capacity f)
            ~n_sites:(Tel.Flight.n_sites f) ()
        in
        let dumps =
          List.filter_map
            (fun r ->
              match r.flight with
              | Some fl -> Some (Tel.Flight.dump fl ~reason ~at:(now_s t))
              | None -> None)
            (all_records t)
        in
        let events =
          List.concat
            (List.mapi
               (fun rank d ->
                 List.concat_map
                   (fun site ->
                     List.mapi
                       (fun idx ev -> (ev.Tel.Flight.ev_at, rank, idx, site, ev))
                       (Tel.Flight.events d ~site))
                   (Tel.Flight.sites d))
               dumps)
        in
        let events =
          List.sort
            (fun (a1, r1, i1, s1, _) (a2, r2, i2, s2, _) ->
              let c = Float.compare a1 a2 in
              if c <> 0 then c
              else
                let c = Int.compare r1 r2 in
                if c <> 0 then c
                else
                  let c = Int.compare s1 s2 in
                  if c <> 0 then c else Int.compare i1 i2)
            events
        in
        List.iter
          (fun (_, _, _, site, ev) ->
            Tel.Flight.record merged ~site ~at:ev.Tel.Flight.ev_at
              ~kind:ev.Tel.Flight.ev_kind ~a:ev.Tel.Flight.ev_a
              ~b:ev.Tel.Flight.ev_b ~tag:ev.Tel.Flight.ev_tag
              ~payload:ev.Tel.Flight.ev_payload ())
          events;
        Some
          (Tel.Flight.to_json (Tel.Flight.dump merged ~reason ~at:(now_s t)))
      end

(* [?label] marks the scheduled closure as a protocol timer: it is
   numbered from a plain counter and reported armed and fired, with the
   thunk naming the owning site and a stable key. The thunk is forced
   only by an observer that asks (the sanitizer's lost-trace detector
   uses it to see that a continuation path is still armed). Plain
   closures (mutator steps, trace schedule ticks) stay unlabelled. *)
let schedule t ?label ~delay f =
  let t = ctx t in
  let at = Sim_time.add t.now delay in
  let f =
    match label with
    | None -> f
    | Some label ->
        let id = t.next_timer in
        t.next_timer <- id + 1;
        note t (Timer_armed { id; at; label });
        fun () ->
          note t (Timer_fired id);
          f ()
  in
  Event_queue.push t.queue ~at f

let fresh_token t =
  let t = ctx t in
  let tok = t.next_token in
  t.next_token <- tok + t.id_stride;
  tok

let set_agent_arrival t f = (root t).agent_arrival <- f
let set_extra_roots t f = (root t).extra_roots <- f

let reachable t a b =
  let r = root t in
  r.partition_of.(Site_id.to_int a) = r.partition_of.(Site_id.to_int b)

let app_roots t id =
  (root t).extra_roots id @ Site.pinned_local_roots (site t id)

let in_flight_refs t =
  let of_record t =
    let flying = Hashtbl.fold (fun _ refs acc -> refs @ acc) t.in_flight [] in
    let part =
      List.concat_map (fun m -> Protocol.refs_carried m.payload) t.part_parked
    in
    let outboxed =
      List.concat_map (fun om -> om.om_refs) !(t.outbox)
    in
    Hashtbl.fold
      (fun _ msgs acc ->
        List.fold_left
          (fun acc m -> Protocol.refs_carried m.payload @ acc)
          acc !msgs)
      t.parked
      (outboxed @ part @ flying)
  in
  List.concat_map of_record (all_records t)

(* --- delivery ------------------------------------------------------- *)

(* The base-protocol receiver, written as a {!Protocol.handlers}
   dispatch table: one handler per constructor, with the single
   exhaustive match living in [Protocol.dispatch]. The context is
   (engine, receiving site id). *)

let rec base_handlers =
  {
    Protocol.h_move =
      (fun (t, dst) ~src ~agent ~refs ~token ->
        let s = site t dst in
        let needed = ref 0 in
        List.iter
          (fun r ->
            (match Site.fresh_outref_of_arrival s r with
            | `Local | `Known -> ()
            | `Created ->
                incr needed;
                Hashtbl.replace t.awaiting_insert (dst, r) token;
                send t ~src:dst ~dst:(Oid.site r)
                  (Protocol.Insert { r; by = dst }));
            (* §6.1 barrier point: the reference arrived at this site. *)
            s.Site.hooks.h_ref_arrived r)
          refs;
        (root t).agent_arrival ~agent ~dst;
        if !needed = 0 then
          send t ~src:dst ~dst:src (Protocol.Move_ack { token })
        else
          Hashtbl.replace t.move_waits token
            { remaining = !needed; reply_to = src; wait_since = t.now });
    h_move_ack =
      (fun (t, dst) ~src:_ ~token -> Site.unpin (site t dst) ~token);
    h_insert =
      (fun (t, dst) ~src:_ ~r ~by ->
        let s = site t dst in
        let ir = Tables.ensure_inref s.Site.tables r in
        (* A brand-new source is conservatively at distance 1 (§3); a
           brand-new inref is stamped with its creation time (used by
           the Hughes baseline's timestamps). *)
        if ir.Ioref.ir_sources = [] then
          ir.Ioref.ir_ts <- Sim_time.to_seconds t.now;
        Ioref.add_source ir by ~dist:1;
        (* §6.1.2 case 4: the transfer barrier applies to inref z. *)
        s.Site.hooks.h_ref_arrived r;
        send t ~src:dst ~dst:by (Protocol.Insert_done { r }));
    h_insert_done =
      (fun (t, dst) ~src:_ ~r ->
        let s = site t dst in
        (* Release the insert pin taken when the outref was created. *)
        (match Tables.find_outref s.Site.tables r with
        | Some o -> o.Ioref.or_pins <- max 0 (o.Ioref.or_pins - 1)
        | None -> ());
        match Hashtbl.find_opt t.awaiting_insert (dst, r) with
        | None -> ()
        | Some token -> (
            Hashtbl.remove t.awaiting_insert (dst, r);
            match Hashtbl.find_opt t.move_waits token with
            | None -> ()
            | Some w ->
                w.remaining <- w.remaining - 1;
                if w.remaining = 0 then begin
                  Hashtbl.remove t.move_waits token;
                  note t
                    (Unstalled
                       { site = dst; waited = Sim_time.sub t.now w.wait_since });
                  send t ~src:dst ~dst:w.reply_to (Protocol.Move_ack { token })
                end));
    h_update =
      (fun (t, dst) ~src ~removals ~dists ->
        let s = site t dst in
        let on_inref r f =
          match Tables.find_inref s.Site.tables r with
          | Some ir -> f ir
          | None -> ()
        in
        List.iter
          (fun r ->
            on_inref r (fun ir ->
                Ioref.remove_source ir src;
                if ir.Ioref.ir_sources = [] then
                  Tables.remove_inref s.Site.tables r))
          removals;
        List.iter
          (fun (r, d) ->
            on_inref r (fun ir -> Ioref.set_source_dist ir src ~dist:d))
          dists);
    h_ext =
      (fun (t, dst) ~src e -> (site t dst).Site.hooks.h_ext ~src e);
  }

(* The delivery observers run before dispatch: the sanitizer's receiver
   clock must join the capsule first so any message the handler sends
   in response is causally after this delivery. With a profiler, the
   per-handler dispatch scope holds everything a handler does —
   including the sends and frames it causes — under deliver;<kind>. *)
and deliver t m =
  match t.profile with
  | None ->
      note t (Delivered m);
      Protocol.dispatch base_handlers (t, m.dst) ~src:m.src m.payload
  | Some p ->
      Prof.with_scope p "deliver" (fun () ->
          Prof.with_scope p (Protocol.kind m.payload) (fun () ->
              note t (Delivered m);
              Protocol.dispatch base_handlers (t, m.dst) ~src:m.src m.payload))

(* --- sending -------------------------------------------------------- *)

(* One copy of a collector message destroyed without delivery. *)
and drop t m ~reason = note t (Dropped { msg = m; reason })

(* Base messages are never lost: one that cannot reach its destination
   waits for the heal, or for the destination's recovery. *)
and park_partitioned t m =
  note t (Parked { msg = m; reason = "partition" });
  t.part_parked <- m :: t.part_parked

and park_crashed t m =
  note t (Parked { msg = m; reason = "crash" });
  let q =
    match Hashtbl.find_opt t.parked m.dst with
    | Some q -> q
    | None ->
        let q = ref [] in
        Hashtbl.add t.parked m.dst q;
        q
  in
  q := m :: !q

(* Where every copy in flight lands — sent locally, across shards, in a
   deferred batch, or redelivered after parking: if the path was
   partitioned or the destination crashed meanwhile, a collector
   message is dropped and a base message parked; otherwise it is
   delivered. *)
and arrive t m =
  let is_ext = Protocol.is_ext m.payload in
  if not (reachable t m.src m.dst) then
    if is_ext then drop t m ~reason:"partition" else park_partitioned t m
  else if (site t m.dst).Site.crashed then
    if is_ext then drop t m ~reason:"crashed" else park_crashed t m
  else deliver t m

and send_now t m =
  note t (Wired m);
  let dst_site = site t m.dst in
  let is_ext = Protocol.is_ext m.payload in
  if is_ext && dst_site.Site.crashed then drop t m ~reason:"crashed"
  else if is_ext && not (reachable t m.src m.dst) then
    drop t m ~reason:"partition"
  else if is_ext && Rng.chance t.rng (ext_drop_p t) then
    drop t m ~reason:"lossy"
  else if not (reachable t m.src m.dst) then park_partitioned t m
  else if dst_site.Site.crashed then park_crashed t m
  else begin
    let fly_local () =
      let id = t.next_msg_id in
      t.next_msg_id <- id + t.id_stride;
      (match Protocol.refs_carried m.payload with
      | [] -> ()
      | refs -> Hashtbl.replace t.in_flight id refs);
      let delay = sample_latency t in
      schedule t ~delay (fun () ->
          Hashtbl.remove t.in_flight id;
          arrive t m)
    in
    (* A shard sending to a site another shard owns must not touch the
       peer's queue or tables mid-window: the flight is buffered in
       this shard's outbox (latency sampled from this shard's lane, so
       the arrival time is already fixed and deterministic) and the
       coordinator integrates all outboxes at the next barrier in
       (arrival, sender shard, sender seq) order. The landing closure
       then runs on the *destination* shard and re-checks reachability
       and crash state there, exactly like a local flight would. *)
    let fly_cross facade dst_sh =
      let delay = sample_latency t in
      let at = Sim_time.add t.now delay in
      let seq = t.out_seq in
      t.out_seq <- seq + 1;
      let dsh = facade.shards.(dst_sh) in
      let run () = arrive dsh m in
      t.outbox :=
        {
          om_at = at;
          om_src_shard = t.shard_id;
          om_seq = seq;
          om_dst_shard = dst_sh;
          om_refs = Protocol.refs_carried m.payload;
          om_run = run;
        }
        :: !(t.outbox)
    in
    let fly =
      match t.master with
      | Some facade ->
          let dst_sh = facade.shard_of.(Site_id.to_int m.dst) in
          if dst_sh <> t.shard_id then fun () -> fly_cross facade dst_sh
          else fly_local
      | None -> fly_local
    in
    fly ();
    (* Duplicate-delivery fault channel: a second, independent copy of
       a collector message, with its own latency. Only Ext payloads —
       the base protocol stays exactly-once. The [ext_dup_p t > 0.]
       guard keeps the rng stream untouched when the channel is cold. *)
    if is_ext && ext_dup_p t > 0. && Rng.chance t.rng (ext_dup_p t) then begin
      note t (Copied m);
      fly ()
    end
  end

(* One wire message carrying a whole batch of deferred collector
   messages (§4.7: "deferred and piggybacked"). *)
and flush_batch t ~src ~dst msgs =
  note t (Batched msgs);
  let drop_all reason = List.iter (fun m -> drop t m ~reason) msgs in
  if (site t dst).Site.crashed then drop_all "crashed"
  else if not (reachable t src dst) then drop_all "partition"
  else if Rng.chance t.rng (ext_drop_p t) then drop_all "lossy"
  else begin
    let fly () =
      let delay = sample_latency t in
      schedule t ~delay (fun () -> List.iter (arrive t) msgs)
    in
    fly ();
    (* Whole-batch duplication: deferred collector batches are one wire
       message, so the fault channel duplicates the wire message. *)
    if ext_dup_p t > 0. && Rng.chance t.rng (ext_dup_p t) then begin
      List.iter (fun m -> note t (Copied m)) msgs;
      fly ()
    end
  end

and send t ~src ~dst payload =
  let t = ctx t in
  let capsule = t.next_capsule in
  t.next_capsule <- capsule + 1;
  let m = { src; dst; payload; capsule } in
  note t (Sent m);
  let defer = t.cfg.Config.defer_interval in
  (* A shard's deferral queue can only batch same-shard destinations:
     a batched flush delivers directly, which must stay shard-local.
     Cross-shard sends from a shard bypass deferral and go through the
     outbox (still one flight per message — batching across the
     boundary would need its own integration protocol). *)
  let cross_shard =
    match t.master with
    | Some facade -> facade.shard_of.(Site_id.to_int dst) <> t.shard_id
    | None -> false
  in
  if
    Protocol.is_ext payload
    && Sim_time.compare defer Sim_time.zero > 0
    && not cross_shard
  then begin
    let key = (src, dst) in
    match Hashtbl.find_opt t.defer_queues key with
    | Some q -> q := m :: !q
    | None ->
        let q = ref [ m ] in
        Hashtbl.add t.defer_queues key q;
        schedule t ~delay:defer (fun () ->
            match Hashtbl.find_opt t.defer_queues key with
            | None -> ()
            | Some q ->
                Hashtbl.remove t.defer_queues key;
                flush_batch t ~src ~dst (List.rev !q))
  end
  else send_now t m

(* --- mutator moves --------------------------------------------------- *)

let move_agent t ~agent ~src ~dst ~refs =
  let t = ctx t in
  if Site_id.equal src dst then (root t).agent_arrival ~agent ~dst
  else begin
    let token = fresh_token t in
    (* Retain everything we carry until the destination has registered
       it (move-ack): the insert barrier, §6.1.2. *)
    Site.pin (site t src) ~token refs;
    send t ~src ~dst (Protocol.Move { agent; refs; token })
  end

(* --- fault injection -------------------------------------------------- *)

let partition t groups =
  let t = root t in
  let parts = Array.make (Array.length t.sites) (List.length groups) in
  List.iteri
    (fun g members ->
      List.iter (fun s -> parts.(Site_id.to_int s) <- g) members)
    groups;
  t.partition_of <- parts;
  note t (Partitioned groups)

(* Deliver a previously parked base message; if the destination is
   unavailable again when it lands, re-park it rather than lose it —
   the base protocol must be reliable. *)
let redeliver_parked t m =
  let delay = sample_latency t in
  schedule t ~delay (fun () -> arrive t m)

let heal t =
  let t = root t in
  t.partition_of <- Array.make (Array.length t.sites) 0;
  note t Healed;
  (* Sharded: every record (facade first, shards in order) may hold
     partition-parked messages; redeliveries all go through the
     coordinator's queue and rng, so the replay order — and therefore
     the run — is independent of which record parked what when. *)
  List.iter
    (fun r ->
      let parked = List.rev r.part_parked in
      r.part_parked <- [];
      List.iter (redeliver_parked t) parked)
    (all_records t)

let crash t id =
  let t = root t in
  (site t id).Site.crashed <- true;
  note t (Crashed id)

let recover t id =
  let t = root t in
  let s = site t id in
  let was_crashed = s.Site.crashed in
  s.Site.crashed <- false;
  note t (Recovered { site = id; was_crashed });
  if was_crashed then
    List.iter
      (fun r ->
        match Hashtbl.find_opt r.parked id with
        | None -> ()
        | Some q ->
            let msgs = List.rev !q in
            Hashtbl.remove r.parked id;
            List.iter (redeliver_parked t) msgs)
      (all_records t)

(* --- GC schedule ------------------------------------------------------ *)

let rec schedule_site_trace t id =
  let cfg = t.cfg in
  let jitter =
    if Sim_time.compare cfg.Config.trace_jitter Sim_time.zero <= 0 then
      Sim_time.zero
    else Rng.float t.rng (Sim_time.to_seconds cfg.Config.trace_jitter)
  in
  let delay = Sim_time.add cfg.Config.trace_interval jitter in
  schedule t ~delay (fun () ->
      if t.gc_running then begin
        let s = site t id in
        if not s.Site.crashed then s.Site.hooks.h_run_local_trace ();
        schedule_site_trace t id
      end)

let start_gc_schedule t =
  if not t.gc_running then begin
    t.gc_running <- true;
    if sharded t then
      (* Synchronized rounds: every site traces at k·interval on its
         owner shard — no stagger, no jitter, no rng draw. The trace
         schedule being randomness-free keeps each shard's rng lane
         aligned regardless of how the conservative windows cut, and
         all sites tracing at the same instant is what lets one window
         run every site's trace concurrently. *)
      Array.iteri
        (fun i _ ->
          let id = Site_id.of_int i in
          let sh = t.shards.(t.shard_of.(i)) in
          let interval = t.cfg.Config.trace_interval in
          let rec tick at () =
            if t.gc_running then begin
              let s = site t id in
              if not s.Site.crashed then s.Site.hooks.h_run_local_trace ();
              let at' = Sim_time.add at interval in
              Event_queue.push sh.queue ~at:at' (tick at')
            end
          in
          let at0 = Sim_time.add t.now interval in
          Event_queue.push sh.queue ~at:at0 (tick at0))
        t.sites
    else
      Array.iteri
        (fun i _ ->
          let id = Site_id.of_int i in
          (* Stagger the first trace of each site across one interval. *)
          let frac =
            Sim_time.to_seconds t.cfg.Config.trace_interval
            *. (float_of_int (i + 1)
               /. float_of_int (Array.length t.sites + 1))
          in
          schedule t ~delay:(Sim_time.of_seconds frac) (fun () ->
              if t.gc_running then begin
                let s = site t id in
                if not s.Site.crashed then s.Site.hooks.h_run_local_trace ();
                schedule_site_trace t id
              end))
        t.sites
  end

let stop_gc_schedule t = t.gc_running <- false

(* --- run loop --------------------------------------------------------- *)

let step_nth t n =
  if sharded t then
    invalid_arg
      "Engine.step_nth: a sharded engine has no single event queue (use \
       run_until/run_for; the schedule explorer needs shards=1)";
  match Event_queue.pop_nth t.queue n with
  | None -> false
  | Some (at, f) ->
      (* Deviating to a later-scheduled event must not move time
         backwards when the skipped earlier events eventually run. *)
      if Sim_time.compare at t.now > 0 then t.now <- at;
      profile_work t "events" 1;
      f ();
      note t Stepped;
      true

let step t = step_nth t 0

let pending t =
  List.fold_left
    (fun acc r -> acc + Event_queue.length r.queue)
    0 (all_records t)

let peek_time t =
  List.fold_left
    (fun acc r ->
      match (acc, Event_queue.peek_time r.queue) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (if Sim_time.compare a b <= 0 then a else b))
    None (all_records t)

let nth_time t n = Event_queue.nth_time t.queue n

(* --- sharded run loop -------------------------------------------------

   Conservative time windows. Let W be the earliest event time across
   the shard queues and L the lookahead — the minimum cross-shard
   network latency ([Latency.min_bound], scaled by the chaos latency
   factor). No shard can cause an event on another shard before W + L:
   the only in-window cross-shard channel is a message flight, and
   every flight takes at least L. So all shard events in [W, W + L)
   are causally independent across shards and may run concurrently.

   The window is further clipped to the next coordinator event (fault
   injections, redeliveries, agent programs and barrier-deferred trace
   applies all run there, serially, between windows) and to the run
   limit. When L = 0 (exponential latency, or a chaos factor of 0) the
   window degenerates to the closed equal-time slice [W, W]: strictly
   positive samples mean any flight still lands after W, so draining
   exactly the events at W remains conservative and makes progress.

   Determinism: which events land in which window is a function of
   event times alone; within a window each shard drains only its own
   queue with its own rng lane and writes no other shard's state
   (cross-shard sends buffer in the sender's outbox); outboxes are
   integrated at the barrier in (arrival, sender shard, seq) order.
   None of this depends on the number of domains executing the shard
   tasks, which is the whole point: same seed, same shard count, any
   --domains N — byte-identical runs. *)

let at_barrier t f =
  let c = ctx t in
  if c.shard_id >= 0 then Queue.push f c.barrier_q else f ()

let lookahead t =
  let base = Latency.min_bound t.cfg.Config.latency in
  let factor = t.latency_factor in
  if factor = 1.0 then base
  else Sim_time.of_seconds (Sim_time.to_seconds base *. factor)

let integrate_outboxes t =
  let msgs =
    Array.fold_left (fun acc sh -> !(sh.outbox) @ acc) [] t.shards
  in
  Array.iter (fun sh -> sh.outbox := []) t.shards;
  match msgs with
  | [] -> ()
  | msgs ->
      let msgs =
        List.sort
          (fun a b ->
            let c = Sim_time.compare a.om_at b.om_at in
            if c <> 0 then c
            else
              let c = Int.compare a.om_src_shard b.om_src_shard in
              if c <> 0 then c else Int.compare a.om_seq b.om_seq)
          msgs
      in
      Metrics.add t.metrics "window.cross_shard_msgs" (List.length msgs);
      List.iter
        (fun om ->
          t.xmsg_count <- t.xmsg_count + 1;
          let dsh = t.shards.(om.om_dst_shard) in
          (* Refs crossing the boundary become visible to the oracle's
             in-flight set the moment they leave the outbox. *)
          let run =
            match om.om_refs with
            | [] -> om.om_run
            | refs ->
                let id = t.next_msg_id in
                t.next_msg_id <- id + t.id_stride;
                Hashtbl.replace dsh.in_flight id refs;
                fun () ->
                  Hashtbl.remove dsh.in_flight id;
                  om.om_run ()
          in
          Event_queue.push dsh.queue ~at:om.om_at run)
        msgs

let run_barrier t =
  integrate_outboxes t;
  (* Deferred shard work (trace applies, oracle checks, back-trace
     triggers) runs serially here, in shard order, on the coordinator. *)
  Array.iter
    (fun sh ->
      while not (Queue.is_empty sh.barrier_q) do
        (Queue.pop sh.barrier_q) ()
      done)
    t.shards

let ensure_pool t =
  match t.pool with
  | Some p -> p
  | None ->
      (* Cap at the core count: domains beyond the cores only add
         stop-the-world scheduling latency (a descheduled domain must
         be run by the OS before any minor GC can proceed). Shard
         tasks are claimed from a shared counter, so fewer workers
         than shards still execute every window — just in waves —
         and which worker runs a shard never affects the result. *)
      let n =
        max 1
          (min
             (min t.cfg.Config.domains (Array.length t.shards))
             (Domain.recommended_domain_count ()))
      in
      let p = Domain_pool.create ~size:n in
      t.pool <- Some p;
      p

let exec_window t ~closed ~bound ~limit =
  let task sh () =
    let cur = Domain.DLS.get dls_shard in
    cur := Some sh;
    Fun.protect
      ~finally:(fun () -> cur := None)
      (fun () ->
        let n = ref 0 in
        let keep_going () =
          match Event_queue.peek_time sh.queue with
          | None -> false
          | Some at ->
              Sim_time.compare at limit <= 0
              &&
              if closed then Sim_time.compare at bound <= 0
              else Sim_time.compare at bound < 0
        in
        while keep_going () do
          match Event_queue.pop sh.queue with
          | Some (at, f) ->
              if Sim_time.compare at sh.now > 0 then sh.now <- at;
              incr n;
              f ()
          | None -> ()
        done;
        sh.drained <- !n)
  in
  (* Windows where at most one shard has events in range gain nothing
     from the pool — run them inline on the coordinator (the executed
     event sequence is identical either way). Most windows in a
     lightly-loaded run are of this kind, so this is the difference
     between paying a pool handoff per window and paying one only when
     there is parallel work to hand off. *)
  let in_range at =
    Sim_time.compare at limit <= 0
    &&
    if closed then Sim_time.compare at bound <= 0
    else Sim_time.compare at bound < 0
  in
  let active =
    Array.fold_left
      (fun acc sh ->
        match Event_queue.peek_time sh.queue with
        | Some at when in_range at -> acc + 1
        | _ -> acc)
      0 t.shards
  in
  if active <= 1 then Array.iter (fun sh -> task sh ()) t.shards
  else begin
    let pool = ensure_pool t in
    let tasks = Array.to_list (Array.map task t.shards) in
    try Domain_pool.run pool tasks
    with Domain_pool.Task_error e -> raise e
  end;
  t.win_count <- t.win_count + 1;
  Metrics.incr t.metrics "window.count";
  let mn, mx =
    Array.fold_left
      (fun (mn, mx) sh -> (min mn sh.drained, max mx sh.drained))
      (max_int, 0) t.shards
  in
  if mx - mn > t.max_skew then t.max_skew <- mx - mn;
  (* Advance the facade clock to the window end *before* the barrier:
     deferred applies run at the barrier's logical time, so anything
     they schedule or send lands in the future. With the clock still
     at the previous window's end, a barrier-sent flight would get a
     past timestamp and only pop after [t.now] jumps past it — one
     whole inter-window gap late, which is exactly a protocol timeout
     when windows are a trace round apart. [wend] is a function of
     event times alone, so determinism across [--domains] holds. *)
  let wend = if Sim_time.compare bound limit <= 0 then bound else limit in
  if Sim_time.compare wend t.now > 0 then t.now <- wend;
  run_barrier t

let sharded_run_until t limit =
  let next_shard_time () =
    Array.fold_left
      (fun acc sh ->
        match Event_queue.peek_time sh.queue with
        | None -> acc
        | Some at -> (
            match acc with
            | None -> Some at
            | Some b -> Some (if Sim_time.compare at b <= 0 then at else b)))
      None t.shards
  in
  let rec loop () =
    let g = Event_queue.peek_time t.queue in
    let w = next_shard_time () in
    let coord_first =
      match (g, w) with
      | Some g, Some w -> Sim_time.compare g w <= 0
      | Some _, None -> true
      | None, _ -> false
    in
    if coord_first then begin
      match g with
      | Some at when Sim_time.compare at limit <= 0 -> (
          match Event_queue.pop t.queue with
          | Some (at, f) ->
              if Sim_time.compare at t.now > 0 then t.now <- at;
              f ();
              note t Stepped;
              loop ()
          | None -> ())
      | _ -> ()
    end
    else
      match w with
      | Some w when Sim_time.compare w limit <= 0 ->
          let la = lookahead t in
          let closed = Sim_time.compare la Sim_time.zero <= 0 in
          let bound =
            if closed then w
            else begin
              let b = Sim_time.add w la in
              match g with
              | Some g when Sim_time.compare g b < 0 -> g
              | _ -> b
            end
          in
          (* [exec_window] advances [t.now] to the window end itself,
             before its barrier. *)
          exec_window t ~closed ~bound ~limit;
          note t Stepped;
          loop ()
      | _ -> ()
  in
  loop ();
  t.now <- limit;
  Array.iter
    (fun sh -> if Sim_time.compare limit sh.now > 0 then sh.now <- limit)
    t.shards

let run_until t limit =
  if sharded t then sharded_run_until t limit
  else
    let rec loop () =
      match Event_queue.peek_time t.queue with
      | Some at when Sim_time.(at <= limit) ->
          ignore (step t);
          loop ()
      | _ -> t.now <- limit
    in
    loop ()

let run_for t d = run_until t (Sim_time.add t.now d)

(* --- sharded read-back ------------------------------------------------ *)

let shard_stats t =
  if not (sharded t) then None
  else Some (t.win_count, t.xmsg_count, t.max_skew)

let teardown t =
  match t.pool with
  | Some p ->
      Domain_pool.teardown p;
      t.pool <- None
  | None -> ()

let merged_metrics t =
  if not (sharded t) then t.metrics
  else begin
    let m = Metrics.create ~sample_cap:4096 () in
    List.iter (fun r -> Metrics.merge_into ~into:m r.metrics) (all_records t);
    m
  end

let merged_series t =
  if not (sharded t) then t.series
  else begin
    let s = Tel.Series.create () in
    List.iter
      (fun r -> Tel.Series.merge_into ~into:s r.series)
      (all_records t);
    s
  end

let merged_journal t =
  if not (sharded t) then t.journal
  else
    match t.journal with
    | None -> None
    | Some fj ->
        (* Interleave by (sim time, record rank, ring position): a
           total order that depends only on the sharded timeline. The
           merged ring is sized to hold everything, so the merge never
           evicts. *)
        let sources =
          List.mapi (fun rank r ->
              ( rank,
                match r.journal with
                | Some j -> Journal.entries j
                | None -> [] ))
            (all_records t)
        in
        let tagged =
          List.concat_map
            (fun (rank, es) ->
              List.mapi (fun i e -> (e.Journal.at, rank, i, e)) es)
            sources
        in
        let tagged =
          List.sort
            (fun (a1, r1, i1, _) (a2, r2, i2, _) ->
              let c = Sim_time.compare a1 a2 in
              if c <> 0 then c
              else
                let c = Int.compare r1 r2 in
                if c <> 0 then c else Int.compare i1 i2)
            tagged
        in
        let j =
          Journal.create
            ~capacity:(max (Journal.capacity fj) (List.length tagged))
            ()
        in
        List.iter
          (fun (_, _, _, e) ->
            Journal.record j ~level:e.Journal.level ~at:e.Journal.at
              ~cat:e.Journal.cat e.Journal.text)
          tagged;
        Some j

let trace_rounds_completed t =
  Array.fold_left (fun acc s -> min acc s.Site.trace_epoch) max_int t.sites
