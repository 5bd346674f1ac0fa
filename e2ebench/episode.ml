(* Workloads and one episode of the end-to-end benchmark: build the
   workload from its seed, run the collector round by round until the
   generated garbage is gone and the collector is quiet, and check the
   result from outside. See README.md for why each workload exists. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload

let now = Unix.gettimeofday

type workload = Hypertext | Bigheap | Churn

let workloads = [ ("hypertext", Hypertext); ("bigheap", Bigheap); ("churn", Churn) ]

(* An episode is quiet once the collector has sent nothing for this
   many consecutive rounds after the last garbage was freed; one that
   is not quiet after [round_cap] rounds fails. *)
let quiet_rounds = 2
let round_cap = 400

(* Seeds per run: the end-to-end metrics are means over this many
   instances of the workload, because when the last garbage goes
   varies from seed to seed, by a whole local-trace round on bigheap. *)
let instances = function Hypertext -> 3 | Bigheap | Churn -> 5

(* Churn agents run for this many rounds, then stop. *)
let mutator_rounds = 20

let config w ~seed ~profile =
  let base =
    {
      Config.default with
      Config.seed;
      threshold2 = 6;
      threshold_bump = 4;
      trace_interval = Sim_time.of_seconds 10.;
      trace_jitter = Sim_time.of_seconds 1.;
      oracle_checks = false;
      check_level = Config.Check_off;
      profile;
    }
  in
  match w with
  | Hypertext -> { base with Config.n_sites = 8 }
  | Bigheap -> { base with Config.n_sites = 4 }
  | Churn -> { base with Config.n_sites = 8; oracle_checks = true }

(* A rooted chain of [n] objects plus [n/4] random local edges at every
   site: live data that only local tracing and heap export touch. *)
let build_live_heap eng ~rng ~n =
  Array.iter
    (fun s ->
      let id = s.Site.id in
      let objs = Array.make n (Builder.root_obj eng id) in
      for i = 1 to n - 1 do
        objs.(i) <- Builder.obj eng id;
        Builder.link eng ~src:objs.(i - 1) ~dst:objs.(i)
      done;
      for _ = 1 to n / 4 do
        Builder.link eng ~src:objs.(Rng.int rng n) ~dst:objs.(Rng.int rng n)
      done)
    (Engine.sites eng)

(* A hypertext web of [docs_per_site] documents per site, half of them
   published (rooted) and half garbage, each half with its own
   [cross_links / 2] random links. [Graph_gen.hypertext] draws each
   document's fate independently, which makes the amount of garbage,
   and every cost per collected object, vary from seed to seed; two
   webs with fixed fates do not. Returns the garbage pages. *)
let web eng ~rng ~docs_per_site ~pages_per_doc ~cross_links =
  let half rooted_frac =
    Graph_gen.hypertext eng ~rng ~docs_per_site:(docs_per_site / 2)
      ~pages_per_doc ~cross_links:(cross_links / 2) ~rooted_frac
  in
  ignore (half 1.);
  half 0.

(* Builds the workload's graph and returns its garbage. *)
let build w eng ~seed =
  let rng lane = Rng.stream ~seed ~lane in
  match w with
  | Hypertext ->
      web eng ~rng:(rng 1) ~docs_per_site:100 ~pages_per_doc:20 ~cross_links:200
  | Bigheap ->
      (* The web is built first: the generator asks the oracle for
         reachability, which on the full heap would cost more than the
         rest of set-up. *)
      let garbage =
        Graph_gen.hypertext eng ~rng:(rng 1) ~docs_per_site:5
          ~pages_per_doc:4 ~cross_links:10 ~rooted_frac:0.
      in
      build_live_heap eng ~rng:(rng 2) ~n:100_000;
      garbage
  | Churn -> web eng ~rng:(rng 1) ~docs_per_site:20 ~pages_per_doc:8 ~cross_links:40

(* ---- per-layer spans (traced episodes only) ----------------------------- *)

type layers = {
  mutable exports : int;
  mutable export_s : float;
  mutable export_words : float;
  mutable clean_s : float;
  mutable suspect_s : float;
  mutable assemble_s : float;
  mutable compute_s : float;
  mutable clean_visits : int;
  mutable suspect_visits : int;
  mutable union_calls : int;
  mutable memo_hits : int;
  mutable inset_entries : int;
  mutable pending_max : int;
}

(* Sample every site and replay its local trace with phase probes.
   [input_of_site] and [compute] only read the site, so the schedule
   is untouched; the exact-count comparison with the untraced episodes
   checks that. *)
let replay_local_traces ly eng =
  ly.pending_max <- max ly.pending_max (Engine.pending eng);
  Array.iter
    (fun s ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let input = Local_trace.input_of_site eng s in
      let t1 = now () in
      ly.export_words <- ly.export_words +. (Gc.minor_words () -. w0);
      ly.export_s <- ly.export_s +. (t1 -. t0);
      ly.exports <- ly.exports + 1;
      let last = ref t1 in
      let probe phase =
        let t = now () in
        let d = t -. !last in
        (match phase with
        | "clean" -> ly.clean_s <- ly.clean_s +. d
        | "suspect" -> ly.suspect_s <- ly.suspect_s +. d
        | _ -> ly.assemble_s <- ly.assemble_s +. d);
        last := t
      in
      let st = (Local_trace.compute ~probe input).Local_trace.ot_stats in
      ly.compute_s <- ly.compute_s +. (now () -. t1);
      ly.clean_visits <- ly.clean_visits + st.Local_trace.clean_visits;
      ly.suspect_visits <- ly.suspect_visits + st.Local_trace.suspect_visits;
      ly.union_calls <- ly.union_calls + st.Local_trace.union_calls;
      ly.memo_hits <- ly.memo_hits + st.Local_trace.memo_hits;
      ly.inset_entries <- ly.inset_entries + st.Local_trace.inset_entries)
    (Engine.sites eng)

(* [dgc.profile/1] nodes as (path, self wall seconds, work units). *)
let profile_nodes p =
  let module Json = Dgc_telemetry.Json in
  let field k f n = Option.bind (Json.member k n) f in
  Option.value ~default:[]
    (field "nodes" Json.to_list_opt (Dgc_profile.Profile.to_json p))
  |> List.filter_map (fun n ->
         match (field "path" Json.to_str_opt n, field "wall_ns" Json.to_int_opt n) with
         | Some path, Some ns ->
             let work =
               match Json.member "work" n with
               | Some (Json.Obj kv) ->
                   List.filter_map
                     (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.to_int_opt v))
                     kv
               | _ -> []
             in
             Some (path, float ns /. 1e9, work)
         | _ -> None)

(* ---- one episode -------------------------------------------------------- *)

type t = {
  setup_s : float;
  build_s : float;
  objects : int;
  garbage : int;
  round_s : float array;  (** host seconds of each [Sim.run_rounds 1] *)
  round_words : float array;  (** minor words allocated in each round *)
  run_s : float;  (** wall of the run loop; completion checks excluded *)
  rounds : int;
  collect_rounds : int;  (** the round in which the last garbage was freed *)
  collect_s : float;  (** how far into that round, in host seconds *)
  collect_words : float;  (** and in minor words *)
  collect_sim_s : float;  (** sim time of the last free *)
  quiesce_rounds : int;  (** the last round that sent a message, or later *)
  msgs : int;
  msgs_at_collect : int;
  traces : int;
  collected : int;
  peak_heap_words : int;  (** largest major heap seen at a round boundary *)
  mutator_ops : int;
  mutator_s : float;
  counters : (string * int) list;
  trace_stats : Back_trace.trace_stat list;
  profile : (string * float * (string * int) list) list;
  layers : layers option;
  oracle_s : float list;  (** one entry per [Oracle.live_set] call *)
  problems : string list;
}

(* What every repetition of a seed must reproduce exactly. *)
let counts e =
  [
    e.rounds; e.collect_rounds; e.quiesce_rounds; e.msgs; e.msgs_at_collect;
    e.traces; e.collected; e.mutator_ops;
  ]

let allocated eng o = Heap.mem (Engine.site eng (Oid.site o)).Site.heap o

let object_count eng =
  Array.fold_left
    (fun acc s -> acc + Heap.object_count s.Site.heap)
    0 (Engine.sites eng)

(* [~oracle] also checks the episode against the oracle's live sets;
   without it, an episode with no mutators is checked by counting what
   it freed. [~traced] turns on the profiler and the per-round
   replays. *)
let run w ~seed ~traced ~oracle =
  (* The previous episode's heap is garbage to the host GC; collect it
     here so that no episode pays for another's. *)
  Gc.full_major ();
  let t0 = now () in
  let sim = Sim.make ~cfg:(config w ~seed ~profile:traced) () in
  let eng = sim.Sim.eng in
  let tb = now () in
  let garbage = build w eng ~seed in
  let t1 = now () in
  let objects = object_count eng and n_garbage = List.length garbage in
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let oracle_s = ref [] in
  let live_set () =
    let t = now () in
    let live = Dgc_oracle.Oracle.live_set eng in
    oracle_s := (now () -. t) :: !oracle_s;
    live
  in
  let live0 = if oracle then live_set () else Oid.Set.empty in
  if oracle && Oid.Set.cardinal live0 + n_garbage <> objects then
    problem "the oracle finds %d garbage objects, the generator %d"
      (objects - Oid.Set.cardinal live0)
      n_garbage;
  let msgs () = Metrics.get (Engine.metrics eng) "msg.total" in
  let ly =
    if traced then
      Some
        {
          exports = 0;
          export_s = 0.;
          export_words = 0.;
          clean_s = 0.;
          suspect_s = 0.;
          assemble_s = 0.;
          compute_s = 0.;
          clean_visits = 0;
          suspect_visits = 0;
          union_calls = 0;
          memo_hits = 0;
          inset_entries = 0;
          pending_max = 0;
        }
    else None
  in
  let churn =
    match w with
    | Churn ->
        Some
          (Churn.start sim ~rng:(Rng.stream ~seed ~lane:3) ~agents:16
             ~mean_op_gap:(Sim_time.of_millis 500.))
    | Hypertext | Bigheap -> None
  in
  (* The run clock ticks inside rounds and replays only, never during
     the completion checks between rounds. *)
  let run_s = ref 0. and rounds = ref 0 in
  let round_s = ref [] and round_words = ref [] in
  let round_t0 = ref 0. and round_w0 = ref 0. in
  (* The latest local trace that freed anything (a site has freed what
     it allocated and no longer holds): its round, how far into that
     round it ended in host seconds and allocated words, its sim time. *)
  let freed = Array.make (Array.length (Engine.sites eng)) 0 in
  let last_free = ref (0, 0., 0., Sim_time.zero) in
  Collector.set_after_trace sim.Sim.col (fun id ->
      let h = (Engine.site eng id).Site.heap in
      let f = Heap.alloc_clock h - Heap.object_count h in
      if f > freed.(Site_id.to_int id) then begin
        freed.(Site_id.to_int id) <- f;
        last_free :=
          ( !rounds + 1,
            now () -. !round_t0,
            Gc.minor_words () -. !round_w0,
            Engine.now eng )
      end);
  let mutator_s = ref 0. and mutator_ops = ref 0 in
  let remaining = ref garbage and collected = ref false in
  let msgs_at_collect = ref 0 and last_msgs = ref 0 and last_msg_round = ref 0 in
  let peak_heap = ref 0 in
  let quiet () =
    let collect_round, _, _, _ = !last_free in
    !collected && !rounds - max collect_round !last_msg_round >= quiet_rounds
  in
  Sim.start sim;
  while (not (quiet ())) && !rounds < round_cap do
    round_w0 := Gc.minor_words ();
    round_t0 := now ();
    Sim.run_rounds sim 1;
    let d = now () -. !round_t0 in
    round_words := (Gc.minor_words () -. !round_w0) :: !round_words;
    round_s := d :: !round_s;
    run_s := !run_s +. d;
    incr rounds;
    Option.iter
      (fun ly ->
        let t = now () in
        replay_local_traces ly eng;
        run_s := !run_s +. (now () -. t))
      ly;
    peak_heap := max !peak_heap (Gc.quick_stat ()).Gc.heap_words;
    let m = msgs () in
    if m > !last_msgs then begin
      last_msgs := m;
      last_msg_round := !rounds
    end;
    (match churn with
    | Some c when !rounds = mutator_rounds ->
        Churn.stop c;
        mutator_s := !run_s;
        mutator_ops := Churn.ops_done c
    | _ -> ());
    if not !collected then begin
      remaining := List.filter (allocated eng) !remaining;
      (* Churn makes garbage of its own, which only the oracle sees:
         ask it once the agents have stopped. *)
      collected :=
        !remaining = []
        && (churn = None
           || (!rounds >= mutator_rounds
              && Oid.Set.cardinal (live_set ()) = object_count eng));
      if !collected then msgs_at_collect := m
    end
  done;
  if not (quiet ()) then problem "not quiet after %d rounds" round_cap;
  let collect_rounds, collect_s, collect_words, collect_sim = !last_free in
  let counters = Metrics.counters (Engine.metrics eng) in
  let counter k = Option.value ~default:0 (List.assoc_opt k counters) in
  let n_freed = counter "gc.objects_freed" in
  (* Output checks. With the oracle: nothing live at set-up (when no
     mutator can legitimately drop it) or at quiescence was freed, and
     no garbage is left. Without it, and with no mutators: exactly the
     garbage the generator reported, which it takes from the oracle,
     was freed. Always: the ioref tables agree with the heaps. *)
  let uncollected =
    if oracle || churn <> None then begin
      let live1 = live_set () in
      let lost live =
        Oid.Set.cardinal (Oid.Set.filter (fun o -> not (allocated eng o)) live)
      in
      if churn = None && lost live0 > 0 then
        problem "%d objects live at set-up were freed" (lost live0);
      if lost live1 > 0 then problem "%d live objects are not allocated" (lost live1);
      object_count eng - Oid.Set.cardinal live1
    end
    else begin
      if n_freed <> n_garbage then
        problem "freed %d objects, generated %d garbage" n_freed n_garbage;
      List.length !remaining
    end
  in
  if uncollected > 0 then
    problem "%d garbage objects survived (uncollected_frac %g)" uncollected
      (float uncollected /. float n_garbage);
  List.iter (problem "table: %s") (Dgc_oracle.Oracle.table_violations eng);
  {
    setup_s = t1 -. t0;
    build_s = t1 -. tb;
    objects;
    garbage = n_garbage;
    round_s = Array.of_list (List.rev !round_s);
    round_words = Array.of_list (List.rev !round_words);
    run_s = !run_s;
    rounds = !rounds;
    collect_rounds;
    collect_s;
    collect_words;
    collect_sim_s = Sim_time.to_seconds collect_sim;
    quiesce_rounds = max collect_rounds !last_msg_round;
    msgs = msgs ();
    msgs_at_collect = !msgs_at_collect;
    traces = counter "back.traces_started";
    collected = n_freed;
    peak_heap_words = !peak_heap;
    mutator_ops = !mutator_ops;
    mutator_s = !mutator_s;
    counters;
    trace_stats =
      (if traced then List.map snd (Back_trace.stats (Collector.back sim.Sim.col))
       else []);
    profile = Option.fold ~none:[] ~some:profile_nodes (Engine.profile eng);
    layers = ly;
    oracle_s = List.rev !oracle_s;
    problems = List.rev !problems;
  }
