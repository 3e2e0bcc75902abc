(** Tests for the transport's stop-scoped fetch memo, on all four
    targets:

    - invalidation: a repeated [Fetch] sends no frame, and every request
      that can change the target (and a reconnect) empties the memo
      first; [Hello] does not, and a [Nub_error] is never kept;
    - bound: printing an array larger than the memo keeps the memo at or
      under {!Transport.memo_bound};
    - differential: at seeded stops of two programs, a live session (with
      the memo) answers [where], [backtrace] and [print] exactly like a
      session over the core dump of the same stop (no memo), before and
      after a store and around a breakpoint's planting and clearing;
    - faults: under seeded duplicates, delays and corruption a session
      answers exactly like a clean one. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Symtab = Ldb_ldb.Symtab
module Transport = Ldb_ldb.Transport
module Chan = Ldb_nub.Chan
module Frame = Ldb_nub.Frame
module Proto = Ldb_nub.Proto
module Faultchan = Ldb_nub.Faultchan

let check = Alcotest.check
let fib_sources = [ ("fib.c", Testkit.fib_c) ]

(** Line 9 of fib.c, [a[i] = a[i-1] + a[i-2]]: reached eight times. *)
let fib_loop_line = 9

(** Three units whose functions call the next unit's, nine frames deep
    under [main], three rounds. *)
let deep_sources =
  let units = 3 in
  List.init units (fun k ->
      let next = (k + 1) mod units in
      let body =
        Printf.sprintf
          {|int d%d(int n, int acc);
int g%d;
int d%d(int n, int acc)
{
    int local;
    local = (acc * 3 + n) %% 10007;
    g%d = local;
    if (n == 0)
        return local;
    return d%d(n - 1, local) + 1;
}
|}
          next k k k next
      in
      let main =
        {|int main(void)
{
    int r;
    int total;
    total = 0;
    for (r = 0; r < 3; r++)
        total = (total + d0(8, r)) % 10007;
    printf("%d\n", total);
    return 0;
}
|}
      in
      (Printf.sprintf "u%d.c" k, if k = 0 then body ^ main else body))

(** Count into [n] the [Fetch] frames leaving a debugger endpoint. *)
let count_fetches (n : int ref) (ep : Chan.endpoint) : unit =
  Chan.set_on_send ep
    (Some
       (fun s ->
         (match
            Proto.decode_request
              (String.sub s Frame.header_len (String.length s - Frame.header_len))
          with
         | Ok (Proto.Fetch _) -> incr n
         | _ -> ());
         Chan.deliver ep s))

(** A fib session stopped in the loop, with its transport and a counter
    of the fetch frames it sends. *)
let fib_stop ~arch =
  let d = Ldb.create () in
  let p = Host.launch ~arch fib_sources in
  let ep = Host.open_channel p in
  let sent = ref 0 in
  count_fetches sent ep;
  let tg = Ldb.connect d ~name:(Arch.name arch) ~loader_ps:p.Host.hp_loader_ps ep in
  ignore (Ldb.break_line d tg ~line:fib_loop_line : int list);
  ignore (Testkit.ok (Ldb.continue_ d tg) : Ldb.state);
  (p, tg, Ldb.transport tg, sent)

(* --- invalidation ------------------------------------------------------------ *)

let fetched = function Proto.Fetched b -> b | _ -> Alcotest.fail "fetch refused"

let test_invalidation () =
  List.iter
    (fun arch ->
      let an = Arch.name arch ^ ": " in
      let p, tg, tr, sent = fib_stop ~arch in
      let ctx =
        match tg.Ldb.tg_state with
        | Ldb.Stopped { ctx_addr; _ } -> ctx_addr
        | _ -> Alcotest.fail "not stopped"
      in
      let a = Proto.Fetch { space = 'd'; addr = ctx; size = 4 } in
      let fetch () = ignore (fetched (Transport.rpc tr a) : string) in
      (* [f] between two identical fetches; [want] fetch frames sent *)
      let around what want f =
        (* start from an empty memo: the stop itself fetched the context *)
        ignore (Transport.rpc tr (Proto.Clear_cond { addr = 0 }) : Proto.reply);
        let n0 = !sent in
        fetch ();
        f ();
        fetch ();
        check Alcotest.int (an ^ what) want (!sent - n0)
      in
      around "two identical fetches send one frame" 1 ignore;
      around "Hello leaves the memo" 1 (fun () ->
          ignore (Transport.rpc tr Proto.Hello : Proto.reply));
      let other = ctx + 16 in
      let other_bytes =
        fetched (Transport.rpc tr (Proto.Fetch { space = 'd'; addr = other; size = 4 }))
      in
      around "a store elsewhere empties the memo" 2 (fun () ->
          match Transport.rpc tr (Proto.Store { space = 'd'; addr = other; bytes = other_bytes }) with
          | Proto.Stored -> ()
          | _ -> Alcotest.fail "store refused");
      around "Set_cond empties the memo" 2 (fun () ->
          ignore (Transport.rpc tr (Proto.Set_cond { addr = 0; prog = "\x00" }) : Proto.reply));
      around "Continue empties the memo" 2 (fun () ->
          ignore (Transport.rpc tr Proto.Continue : Proto.reply));
      if tg.Ldb.tg_can_step then
        around "Step empties the memo" 2 (fun () ->
            ignore (Transport.rpc tr Proto.Step : Proto.reply));
      around "reconnect empties the memo" 2 (fun () ->
          let ep = Host.open_channel p in
          count_fetches sent ep;
          Transport.reconnect tr ep);
      (* a refused fetch is asked again *)
      let bad = Proto.Fetch { space = 'd'; addr = 0x7ffffff0; size = 4 } in
      let n0 = !sent in
      List.iter
        (fun () ->
          match Transport.rpc tr bad with
          | Proto.Nub_error _ -> ()
          | _ -> Alcotest.fail "an unmapped fetch was answered")
        [ (); () ];
      check Alcotest.int (an ^ "a Nub_error is not kept") 2 (!sent - n0);
      (* the one-way requests: Detach leaves an empty memo behind, and so
         does Kill, whose nub still answers the next fetch *)
      fetch ();
      Transport.send_oneway tr Proto.Kill;
      check Alcotest.int (an ^ "Kill empties the memo") 0 (Hashtbl.length tr.Transport.memo);
      let n0 = !sent in
      fetch ();
      check Alcotest.int (an ^ "the fetch after Kill is sent") 1 (!sent - n0);
      check Alcotest.int (an ^ "and kept") 1 (Hashtbl.length tr.Transport.memo);
      Transport.send_oneway tr Proto.Detach;
      check Alcotest.int (an ^ "Detach empties the memo") 0 (Hashtbl.length tr.Transport.memo))
    Arch.all

(* --- bound ------------------------------------------------------------------- *)

let big_c =
  Printf.sprintf
    {|
int big[%d];
void show(int k)
{
    big[k] = k;
}
int main(void)
{
    int k;
    for (k = 0; k < %d; k++)
        big[k] = 3 * k;
    show(1);
    return 0;
}
|}
    (Transport.memo_bound + 44) (Transport.memo_bound + 44)

let test_bound () =
  List.iter
    (fun arch ->
      let an = Arch.name arch ^ ": " in
      let s = Testkit.debug_session ~arch [ ("big.c", big_c) ] in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      let tr = Ldb.transport tg in
      ignore (Ldb.break_function d tg "show" : int);
      ignore (Testkit.ok (Ldb.continue_ d tg) : Ldb.state);
      (* print every element, not the first ten *)
      Ldb_pscript.Interp.run_string d.Ldb.interp "/PrintLimit 100000 def";
      let rpcs0 = Ldb.rpcs tg in
      let text = Ldb.print_value d tg (Testkit.top s) "big" in
      check Alcotest.bool (an ^ "the array was printed whole") true
        (String.length text > 4 * Transport.memo_bound);
      check Alcotest.bool (an ^ "every element crossed the wire") true
        (Ldb.rpcs tg - rpcs0 > Transport.memo_bound);
      check Alcotest.bool
        (Printf.sprintf "%smemo holds %d of at most %d" an (Hashtbl.length tr.Transport.memo)
           Transport.memo_bound)
        true
        (Hashtbl.length tr.Transport.memo <= Transport.memo_bound && Hashtbl.length tr.Transport.memo > 0);
      check Alcotest.string (an ^ "a second print answers the same") text
        (Ldb.print_value d tg (Testkit.top s) "big"))
    Arch.all

(* --- what a session answers at a stop ------------------------------------------ *)

(** The names visible at a frame's stopping point, innermost first. *)
let visible (d : Ldb.t) (tg : Ldb.target) fr : string list =
  match Ldb.stop_of_frame d tg fr with
  | None -> []
  | Some st ->
      Symtab.fold_scope ~until:(fun _ -> false)
        (fun acc e ->
          let nm = Symtab.entry_name e in
          if List.mem nm acc then acc else nm :: acc)
        [] st.Symtab.stop_scope
      |> List.rev

(** [where], the backtrace, and [print] of every visible variable in
    every frame. *)
let answers (d : Ldb.t) (tg : Ldb.target) : string list =
  let frames = Ldb.backtrace d tg in
  let line fr =
    match Ldb.stop_of_frame d tg fr with
    | Some st -> Printf.sprintf " line %d" st.Symtab.stop_line
    | None -> ""
  in
  let print fr nm =
    match Ldb.print_value d tg fr nm with
    | v -> Printf.sprintf "%s = %s" nm (String.trim v)
    | exception e -> Printf.sprintf "%s: %s" nm (Ldb.exn_text e)
  in
  (Ldb.where d tg
  :: List.mapi (fun i fr -> Printf.sprintf "#%d %s%s" i (Ldb.frame_function d tg fr) (line fr)) frames)
  @ List.concat_map (fun fr -> List.map (print fr) (visible d tg fr)) frames

(** A program to stop in, where, and a variable of the stop to assign. *)
type prog = {
  pg_name : string;
  pg_sources : (string * string) list;
  pg_break : Ldb.t -> Ldb.target -> unit;
  pg_stops : int;  (** the breakpoint is reached at least this often *)
  pg_var : string;
}

let progs =
  [
    { pg_name = "fib"; pg_sources = fib_sources;
      pg_break = (fun d tg -> ignore (Ldb.break_line d tg ~line:fib_loop_line : int list));
      pg_stops = 8; pg_var = "n" };
    { pg_name = "deep"; pg_sources = deep_sources;
      pg_break = (fun d tg -> ignore (Ldb.break_function d tg "d2" : int));
      pg_stops = 9; pg_var = "acc" };
  ]

(** A live session of [pg] stopped at its [k]th breakpoint hit. *)
let stopped_session ?chan pg ~arch ~k =
  let d = Ldb.create () in
  let p = Host.launch ~arch pg.pg_sources in
  let chan = match chan with Some f -> f p | None -> Host.open_channel p in
  let tg = Ldb.connect d ~name:(Arch.name arch) ~loader_ps:p.Host.hp_loader_ps chan in
  pg.pg_break d tg;
  for _ = 1 to k do
    ignore (Testkit.ok (Ldb.continue_ d tg) : Ldb.state)
  done;
  (d, p, tg)

(** Walk a session through a stop: answers before and after assigning
    [pg_var], with a breakpoint planted on [main] and after clearing it,
    and at the next stop. *)
let script pg (d : Ldb.t) (tg : Ldb.target) (observe : string -> unit) =
  observe "at the stop";
  let v = Ldb.read_int_var d tg (Ldb.top_frame d tg) pg.pg_var in
  Testkit.ok_unit (Ldb.assign_int d tg (Ldb.top_frame d tg) pg.pg_var (v + 5));
  observe "after assign_int";
  let addr = Ldb.break_function d tg "main" in
  observe "with a breakpoint planted";
  Ldb.clear_breakpoint tg ~addr;
  observe "after clearing it";
  ignore (Testkit.ok (Ldb.continue_ d tg) : Ldb.state);
  observe "at the next stop"

let test_live_vs_core () =
  let rng = Random.State.make [| 0x5e0 |] in
  List.iter
    (fun pg ->
      List.iter
        (fun arch ->
          let k = 1 + Random.State.int rng (pg.pg_stops - 1) in
          let d, p, tg = stopped_session pg ~arch ~k in
          let image = Ldb.load_image d ~loader_ps:p.Host.hp_loader_ps in
          script pg d tg (fun what ->
              let what = Printf.sprintf "%s %s stop %d, %s" pg.pg_name (Arch.name arch) k what in
              (* answer live first: pulling the dump is a request, and it
                 empties the memo *)
              let live = answers d tg in
              let core =
                Ldb.attach d ~name:tg.Ldb.tg_name ~image
                  (Ldb.Postmortem (Ldb_ldb.Coredump.make (Ldb.fetch_core tg, [])))
              in
              check Alcotest.(list string) what (answers d core) live))
        Arch.all)
    progs

(* --- faults -------------------------------------------------------------------- *)

let test_faults_answer_clean () =
  let kinds = Faultchan.[ Duplicate; Stall; Corrupt ] in
  List.iteri
    (fun arch_ix arch ->
      List.iteri
        (fun pg_ix pg ->
          let k = 1 + ((arch_ix + pg_ix) mod (pg.pg_stops - 1)) in
          let transcript ?chan () =
            let d, _, tg = stopped_session ?chan pg ~arch ~k in
            let out = ref [] in
            script pg d tg (fun what -> out := (what :: answers d tg) @ !out);
            !out
          in
          let clean = transcript () in
          let fc = ref None in
          let faulty =
            transcript
              ~chan:(fun p ->
                let seed = 7000 + (arch_ix * 10) + pg_ix in
                let prof = Faultchan.profile ~rate:0.05 ~kinds ~stall_ticks:4 () in
                let ep, f = Host.open_faulty_channel p ~seed prof in
                fc := Some f;
                ep)
              ()
          in
          let what = Printf.sprintf "%s %s" pg.pg_name (Arch.name arch) in
          check Alcotest.(list string) (what ^ " answers like a clean session") clean faulty;
          match !fc with
          | Some f when Faultchan.injected f > 0 -> ()
          | _ -> Alcotest.failf "%s: the injector never fired" what)
        progs)
    Arch.all

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "memo"
    [
      ("invalidation", [ case "what empties the memo, on all targets" test_invalidation ]);
      ("bound", [ case "a large array keeps the memo bounded" test_bound ]);
      ("differential", [ case "live session = core-dump session" test_live_vs_core ]);
      ("faults", [ case "faulty link answers like a clean one" test_faults_answer_clean ]);
    ]
