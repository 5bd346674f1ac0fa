(* End-to-end collection benchmark.

     bash e2ebench/run.sh --workload hypertext --seed 1 --seconds 30 --trace 0

   One workload per invocation, as several instances whose seeds derive
   from [--seed]. Episodes cycle through the instances until
   [--seconds] have passed and each instance has run twice.
   The first episode of the run is also checked against the oracle;
   the first episode of each instance fixes the counts (rounds,
   messages, back traces, objects freed) that its repetitions must
   reproduce exactly, and its allocated words, which are exact too.

   [--trace 0] prints the end-to-end metrics, each the mean over the
   instances. [--trace 1] runs one instance, alternating untraced and
   traced episodes, and prints the per-layer metrics. The last line on
   stdout is one JSON object; everything else goes to stderr. See
   README.md for the workloads and what each metric should move. *)

open Dgc_core
module Json = Dgc_telemetry.Json
module E = Episode

let say fmt = Format.kasprintf prerr_endline fmt

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile; 0 for no samples. *)
let percentile p = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let ratio a b = if b = 0 then 0. else float a /. float b

(* [f r] summed over rounds [lo, hi). *)
let sum_rounds f lo hi =
  let acc = ref 0. in
  for r = lo to hi - 1 do
    acc := !acc +. f r
  done;
  !acc

(* One instance's metrics from its episodes, newest first. Every
   repetition of a seed runs the same rounds, so each round's wall is
   its median over the repetitions. Collection ends inside round
   [collect_rounds], at the last free; quiescence at the end of round
   [quiesce_rounds] or at collection, whichever is later. Counts,
   words and the peak heap come from the first episode, which every
   other reproduced; the episodes before it are the same on every
   host, so these are exact. *)
let instance_metrics eps =
  let first = List.nth eps (List.length eps - 1) in
  let med f = median (List.map f eps) in
  let round r = med (fun e -> e.E.round_s.(r)) in
  let c = first.collect_rounds and q = first.quiesce_rounds in
  let collect_s = sum_rounds round 0 (c - 1) +. med (fun e -> e.E.collect_s) in
  let quiesce_s = collect_s +. sum_rounds round c q in
  let words r = first.round_words.(r) in
  let words = sum_rounds words 0 (c - 1) +. first.collect_words +. sum_rounds words c q in
  let collected = float first.collected in
  [
    ("collect_s", "s", collect_s);
    ("quiesce_s", "s", quiesce_s);
    ("collect_sim_s", "s", first.collect_sim_s);
    ("msgs_per_collected", "count", float first.msgs /. collected);
    ("alloc_words_per_collected", "words", words /. collected);
    ("collected_per_s", "1/s", collected /. quiesce_s);
    ("peak_heap_mwords", "Mwords", float first.peak_heap_words /. 1e6);
  ]

(* Printed, but left out of the JSON result: [collected_per_s] is
   objects collected over [quiesce_s], and on churn, whose collected
   count varies by seed, it spreads more than [quiesce_s] itself. *)
let stderr_only = [ "collected_per_s" ]

(* Set-up time is the median over every episode of the run; each
   other metric is its mean over the workload's instances. *)
let end_to_end instances =
  let setup_s = median (List.concat_map (List.map (fun e -> e.E.setup_s)) instances) in
  match List.map instance_metrics instances with
  | [] -> []
  | first :: _ as per ->
      ("setup_s", "s", setup_s)
      :: List.mapi
           (fun i (name, unit_, _) ->
             let vs = List.map (fun m -> let _, _, v = List.nth m i in v) per in
             (name, unit_, List.fold_left ( +. ) 0. vs /. float (List.length vs)))
           first

let msg_kinds =
  [
    "move"; "move_ack"; "insert"; "insert_done"; "update"; "back_call";
    "back_reply"; "back_report";
  ]

let per_layer ~oracle_checks ~untraced ~traced =
  let e = List.hd traced in
  let ly = Option.get e.E.layers in
  let med f = median (List.map f traced) in
  let med_ly f = med (fun e -> f (Option.get e.E.layers)) in
  let per_call_ms total = total /. float ly.exports *. 1000. in
  let c k = float (Option.value ~default:0 (List.assoc_opt k e.E.counters)) in
  (* Profiler self time summed over the nodes whose path matches, in ms
     per episode; and work units summed over all nodes. *)
  let self_ms pred =
    med (fun e ->
        List.fold_left
          (fun acc (p, s, _) -> if pred p then acc +. s else acc)
          0. e.E.profile
        *. 1000.)
  in
  let work unit_ =
    List.fold_left
      (fun acc (_, _, w) -> acc + Option.value ~default:0 (List.assoc_opt unit_ w))
      0 e.E.profile
  in
  let stats = e.E.trace_stats in
  let finished =
    List.filter_map
      (fun s ->
        Option.map
          (fun (v, t) ->
            ( v,
              Dgc_simcore.Sim_time.(to_seconds t -. to_seconds s.Back_trace.ts_started)
            ))
          s.Back_trace.ts_outcome)
      stats
  in
  let live = List.filter (fun (v, _) -> v = Verdict.Live) finished in
  let tail =
    List.filter
      (fun s ->
        Dgc_simcore.Sim_time.to_seconds s.Back_trace.ts_started > e.E.collect_sim_s)
      stats
  in
  let frames = List.map (fun s -> float s.Back_trace.ts_frames) stats in
  let tmsgs = List.map (fun s -> float s.Back_trace.ts_msgs) stats in
  let latency = List.map (fun (_, d) -> d *. 1000.) finished in
  let round_ms =
    List.concat_map (fun e -> Array.to_list (Array.map (( *. ) 1000.) e.E.round_s)) traced
  in
  (* Round wall that no profiler scope covers. The profile root is
     never entered, so every node's self time lies inside a round. *)
  let unattributed =
    med (fun e ->
        let round = Array.fold_left ( +. ) 0. e.E.round_s in
        let covered = List.fold_left (fun acc (_, s, _) -> acc +. s) 0. e.E.profile in
        Float.max 0. (round -. covered) /. round)
  in
  let run_s eps = median (List.map (fun e -> e.E.run_s) eps) in
  let oracle_calls = List.concat_map (fun e -> e.E.oracle_s) (untraced @ traced) in
  [
    ("workload.build_s", "s", med (fun e -> e.E.build_s));
    ("workload.objects", "count", float e.E.objects);
    ("workload.garbage", "count", float e.E.garbage);
    ("heap.export_ms", "ms", med_ly (fun l -> per_call_ms l.E.export_s));
    ("heap.export_words", "words", ly.E.export_words /. float ly.E.exports);
    ("local_trace.clean_ms", "ms", med_ly (fun l -> per_call_ms l.E.clean_s));
    ("local_trace.suspect_ms", "ms", med_ly (fun l -> per_call_ms l.E.suspect_s));
    ("local_trace.assemble_ms", "ms", med_ly (fun l -> per_call_ms l.E.assemble_s));
    ("local_trace.compute_ms", "ms", med_ly (fun l -> per_call_ms l.E.compute_s));
    ("local_trace.in_run_ms", "ms", self_ms (String.starts_with ~prefix:"all;local_trace"));
    ("local_trace.clean_visits", "count", float ly.E.clean_visits);
    ("local_trace.suspect_visits", "count", float ly.E.suspect_visits);
    ("local_trace.union_calls", "count", float ly.E.union_calls);
    ("local_trace.inset_entries", "count", float ly.E.inset_entries);
    ("local_trace.memo_hit_rate", "frac", ratio ly.E.memo_hits ly.E.union_calls);
    ("back_trace.traces", "count", float (List.length stats));
    ("back_trace.live_frac", "frac", ratio (List.length live) (List.length finished));
    ("back_trace.tail_traces", "count", float (List.length tail));
    ("back_trace.tail_msg_frac", "frac", ratio (e.E.msgs - e.E.msgs_at_collect) e.E.msgs);
    ("back_trace.frames_per_trace.p50", "count", percentile 0.5 frames);
    ("back_trace.frames_per_trace.p90", "count", percentile 0.9 frames);
    ("back_trace.msgs_per_trace.p50", "count", percentile 0.5 tmsgs);
    ("back_trace.msgs_per_trace.p90", "count", percentile 0.9 tmsgs);
    ("back_trace.latency_sim_ms.p50", "sim_ms", percentile 0.5 latency);
    ("back_trace.latency_sim_ms.p90", "sim_ms", percentile 0.9 latency);
    ("back_trace.retries", "count", c "retry.back_call" +. c "retry.back_report");
    ("back_trace.timeouts", "count", c "back.call_timeout");
    ("back_trace.handler_ms", "ms", self_ms (String.starts_with ~prefix:"all;deliver;back_"));
    ("engine.events", "count", float (work "events"));
    ("engine.deliveries", "count", float (work "deliveries"));
    ("engine.deliver_ms", "ms", self_ms (String.equal "all;deliver"));
  ]
  @ List.map (fun k -> ("engine.msgs." ^ k, "count", c ("msg." ^ k))) msg_kinds
  @ [
      ("event_queue.pending_max", "count", float ly.E.pending_max);
      ("sim.round_ms.p50", "ms", percentile 0.5 round_ms);
      ("sim.round_ms.p90", "ms", percentile 0.9 round_ms);
      ("sim.round_ms.samples", "count", float (List.length round_ms));
      ("sim.collect_rounds", "count", float e.E.collect_rounds);
      ("sim.quiesce_rounds", "count", float e.E.quiesce_rounds);
      ("mutator.ops", "count", float e.E.mutator_ops);
      ("barrier.move_stalled", "count", c "barrier.move_stalled");
      ("oracle.live_set_ms", "ms", median oracle_calls *. 1000.);
      (* with [oracle_checks], every local trace's sweep asks the oracle *)
      ( "oracle.sweep_checks",
        "count",
        if oracle_checks then c "gc.local_traces" else 0. );
      ("trace.overhead_frac", "frac", (run_s traced /. run_s untraced) -. 1.);
      ("trace.unattributed_frac", "frac", unattributed);
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ String.concat ", " (List.map fst E.workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload E.workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  let traced_run = !trace = 1 in
  (* Seeds derived from [--seed], one per instance of the workload; a
     per-layer run traces the first instance only. *)
  let seeds =
    Array.init (if traced_run then 1 else E.instances w) (fun k -> (!seed * 100) + k)
  in
  let attempted = ref 0 and failed = ref 0 in
  (* The first episode of the run is checked against the oracle; the
     first of each instance fixes the counts its repetitions must
     reproduce exactly. *)
  let untraced = Array.map (fun _ -> ref []) seeds in
  let traced = Array.map (fun _ -> ref []) seeds in
  let episode k ~traced:tr =
    let oracle = !attempted = 0 in
    incr attempted;
    match E.run w ~seed:seeds.(k) ~traced:tr ~oracle with
    | e when e.E.problems <> [] ->
        incr failed;
        List.iter (say "episode %d: %s" !attempted) e.E.problems
    | e -> (
        match List.rev !(untraced.(k)) with
        | first :: _ when E.counts first <> E.counts e ->
            incr failed;
            say "episode %d: exact counts differ from the instance's first" !attempted
        | _ ->
            let r = (if tr then traced else untraced).(k) in
            r := e :: !r)
    | exception exn ->
        incr failed;
        say "episode %d raised %s" !attempted (Printexc.to_string exn)
  in
  let t_start = E.now () in
  let enough () =
    E.now () -. t_start >= !seconds
    && Array.for_all (fun r -> List.length !r >= 2) untraced
    && ((not traced_run) || Array.for_all (fun r -> List.length !r >= 2) traced)
  in
  while !failed = 0 && not (enough ()) do
    Array.iteri
      (fun k _ ->
        episode k ~traced:false;
        if traced_run && !failed = 0 then episode k ~traced:true)
      seeds
  done;
  let metrics =
    if !failed > 0 then []
    else if traced_run then
      let cfg = E.config w ~seed:0 ~profile:false in
      per_layer ~oracle_checks:cfg.Dgc_rts.Config.oracle_checks
        ~untraced:!(untraced.(0)) ~traced:!(traced.(0))
    else end_to_end (Array.to_list (Array.map (fun r -> !r) untraced))
  in
  if !failed = 0 then
    Array.iteri
      (fun k (e : E.t) ->
        say
          "%s seed %d: %d objects, %d garbage; collected in round %d, quiet \
           after %d; %d msgs (%d after the last free), %d back traces%s"
          !workload seeds.(k) e.objects e.garbage e.collect_rounds
          e.quiesce_rounds e.msgs (e.msgs - e.msgs_at_collect) e.traces
          (if e.mutator_ops > 0 then
             Printf.sprintf "; mutator_ops_per_s %.0f"
               (float e.mutator_ops /. e.mutator_s)
           else ""))
      (Array.map (fun r -> List.nth !r (List.length !r - 1)) untraced);
  List.iter (fun (n, u, v) -> say "  %-34s %14.6g %s" n v u) metrics;
  let reported = List.filter (fun (n, _, _) -> not (List.mem n stderr_only)) metrics in
  let correct = !failed = 0 && metrics <> [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, u, v) ->
                     (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
                   reported) );
          ]))
