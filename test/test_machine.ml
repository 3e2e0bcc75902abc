(** Tests for lib/machine: instruction encoders (round-trip properties per
    target), RAM, 80-bit floats, CPU semantics including the SIM-MIPS load
    delay slot, processes and the simulated kernel, and the runtime
    procedure table. *)

open Ldb_machine

let check = Alcotest.check

(* --- encoders: roundtrip property per target ------------------------------ *)

let insn_eq (a : Insn.t) b = a = b

let roundtrip_prop arch =
  let target = Target.of_arch arch in
  Testkit.qtest
    (Printf.sprintf "%s encode/decode roundtrip" (Arch.name arch))
    ~count:500
    (QCheck.make (Testkit.gen_insn arch) ~print:Insn.to_string)
    (fun insn ->
      let bytes = Target.encode target insn in
      let fetch i = Char.code bytes.[i] in
      let decoded, len = Target.decode target ~fetch 0 in
      len = String.length bytes && insn_eq decoded insn)

(* Same property at every alignment the target allows: embed the encoding
   at an arbitrary insn_unit-aligned offset in a padded buffer and decode
   at that address.  This is the foundation dbgcheck's disassembly walk
   stands on — instruction boundaries are wherever decoding lands, not
   just address 0. *)
let roundtrip_any_alignment_prop arch =
  let target = Target.of_arch arch in
  let unit = target.Target.insn_unit in
  Testkit.qtest
    (Printf.sprintf "%s roundtrip at any alignment" (Arch.name arch))
    ~count:500
    (QCheck.make
       QCheck.Gen.(pair (Testkit.gen_insn arch) (int_bound 63))
       ~print:(fun (i, k) -> Printf.sprintf "%s @+%d" (Insn.to_string i) (k * unit)))
    (fun (insn, k) ->
      let bytes = Target.encode target insn in
      let addr = k * unit in
      (* fill the padding with nops so every byte is meaningful *)
      let buf = Buffer.create (addr + String.length bytes) in
      while Buffer.length buf < addr do
        Buffer.add_string buf target.Target.nop
      done;
      let buf = Buffer.(add_string buf bytes; contents buf) in
      let fetch i = if i >= 0 && i < String.length buf then Char.code buf.[i] else 0 in
      let decoded, len = Target.decode target ~fetch addr in
      len = String.length bytes && insn_eq decoded insn)

let test_lengths_differ () =
  (* the four targets genuinely differ in instruction width *)
  let nop_len arch = String.length (Target.of_arch arch).Target.nop in
  check Alcotest.int "mips nop" 4 (nop_len Mips);
  check Alcotest.int "sparc nop" 4 (nop_len Sparc);
  check Alcotest.int "m68k nop" 2 (nop_len M68k);
  check Alcotest.int "vax nop" 1 (nop_len Vax)

let test_real_bit_patterns () =
  (* the trap/no-op encodings are the real machines' *)
  check Alcotest.string "mips break" "\x00\x00\x00\x0d" (Target.of_arch Mips).Target.brk;
  check Alcotest.string "sparc nop" "\x01\x00\x00\x00" (Target.of_arch Sparc).Target.nop;
  check Alcotest.string "m68k nop" "\x4e\x71" (Target.of_arch M68k).Target.nop;
  check Alcotest.string "vax bpt" "\x03" (Target.of_arch Vax).Target.brk

let test_nop_brk_same_length () =
  List.iter
    (fun arch ->
      let t = Target.of_arch arch in
      check Alcotest.int
        (Arch.name arch ^ " nop/brk same length")
        (String.length t.Target.nop) (String.length t.Target.brk))
    Arch.all

let test_stop_encoding_derived () =
  (* Target.nop/brk/nop_advance are derived from the encoder at
     registration time; verify the published contract on every target. *)
  List.iter
    (fun arch ->
      let t = Target.of_arch arch in
      let name s = Arch.name arch ^ " " ^ s in
      check Alcotest.string (name "nop = encode Nop") (Target.encode t Insn.Nop) t.Target.nop;
      check Alcotest.string (name "brk = encode Break") (Target.encode t Insn.Break) t.Target.brk;
      check Alcotest.int (name "nop_advance = |nop|") (String.length t.Target.nop)
        t.Target.nop_advance;
      check Alcotest.int (name "nop_advance = length Nop") (Target.insn_length t Insn.Nop)
        t.Target.nop_advance;
      check Alcotest.bool
        (name "nop length is a positive multiple of insn_unit")
        true
        (t.Target.nop_advance > 0 && t.Target.nop_advance mod t.Target.insn_unit = 0);
      let decode_of s =
        Target.decode t ~fetch:(fun i -> if i < String.length s then Char.code s.[i] else 0) 0
      in
      check Alcotest.bool (name "nop decodes to Nop") true
        (decode_of t.Target.nop = (Insn.Nop, t.Target.nop_advance));
      check Alcotest.bool (name "brk decodes to Break") true
        (decode_of t.Target.brk = (Insn.Break, String.length t.Target.brk)))
    Arch.all;
  (* the derivation itself rejects a contract violation *)
  Alcotest.check_raises "insn_unit mismatch rejected"
    (Invalid_argument
       "Target.stop_encoding(vax): nop length 1 is not a positive multiple of insn_unit 2")
    (fun () -> ignore (Target.stop_encoding ~insn_unit:2 (module Enc_vax : Encoder.S)))

let test_bad_encoding_rejected () =
  List.iter
    (fun arch ->
      let target = Target.of_arch arch in
      let junk = "\xff\xff\xff\xff\xff\xff\xff\xff" in
      let fetch i = Char.code junk.[i mod 8] in
      match Target.decode target ~fetch 0 with
      | exception Optab.Bad_encoding _ -> ()
      | _insn, _ -> Alcotest.failf "%s accepted junk" (Arch.name arch))
    Arch.all

(* --- ram -------------------------------------------------------------------- *)

let test_ram_endianness () =
  let big = Ram.create Big and little = Ram.create Little in
  Ram.set_u32 big 0x1000 0xAABBCCDDl;
  Ram.set_u32 little 0x1000 0xAABBCCDDl;
  check Alcotest.int "BE first byte" 0xAA (Ram.get_u8 big 0x1000);
  check Alcotest.int "LE first byte" 0xDD (Ram.get_u8 little 0x1000)

let test_ram_fault () =
  let m = Ram.create Big in
  (match Ram.get_u8 m (-1) with
  | exception Ram.Fault _ -> ()
  | _ -> Alcotest.fail "negative address accepted");
  match Ram.get_u32 m (Ram.Layout.size - 2) with
  | exception Ram.Fault _ -> ()
  | _ -> Alcotest.fail "overrun accepted"

let test_ram_cstring () =
  let m = Ram.create Big in
  Ram.blit_in m ~addr:0x2000 "hello\000world";
  check Alcotest.string "cstring" "hello" (Ram.read_cstring m ~addr:0x2000)

let test_ram_floats () =
  let m = Ram.create Little in
  Ram.set_f64 m 0x100 3.14159;
  check (Alcotest.float 1e-12) "f64" 3.14159 (Ram.get_f64 m 0x100);
  Ram.set_f32 m 0x200 1.5;
  check (Alcotest.float 1e-6) "f32" 1.5 (Ram.get_f32 m 0x200)

(* Paged RAM against a flat-[Bytes] reference model: the same random
   accesses, clustered at page boundaries and at both ends of the address
   space, must give the same values and the same faults, on both byte
   orders.  The size is deliberately not a whole number of pages. *)

module Endian = Ldb_util.Endian

module Flat = struct
  type t = { b : Bytes.t; order : Endian.order }

  let check m a n = if a < 0 || n < 0 || a + n > Bytes.length m.b then raise (Ram.Fault a)

  let get m w a =
    check m a w;
    match w with
    | 1 -> Int64.of_int (Endian.get_u8 m.b a)
    | 2 -> Int64.of_int (Endian.get_u16 m.order m.b a)
    | 4 -> Int64.of_int32 (Endian.get_u32 m.order m.b a)
    | _ -> Endian.get_u64 m.order m.b a

  let set m w a v =
    check m a w;
    match w with
    | 1 -> Endian.set_u8 m.b a (Int64.to_int v)
    | 2 -> Endian.set_u16 m.order m.b a (Int64.to_int v)
    | 4 -> Endian.set_u32 m.order m.b a (Int64.to_int32 v)
    | _ -> Endian.set_u64 m.order m.b a v

  let blit_in m a s =
    check m a (String.length s);
    Bytes.blit_string s 0 m.b a (String.length s)

  let read m a n =
    check m a n;
    Bytes.sub_string m.b a n

  let extent m lo hi =
    check m lo (hi - lo);
    let rec up i = if i >= hi then None else if Bytes.get m.b i <> '\000' then Some i else up (i + 1) in
    let rec down i = if Bytes.get m.b i <> '\000' then i else down (i - 1) in
    Option.map (fun first -> (first, down (hi - 1))) (up lo)
end

let ram_get m w a =
  match w with
  | 1 -> Int64.of_int (Ram.get_u8 m a)
  | 2 -> Int64.of_int (Ram.get_u16 m a)
  | 4 -> Int64.of_int32 (Ram.get_u32 m a)
  | _ -> Ram.get_u64 m a

let ram_set m w a v =
  match w with
  | 1 -> Ram.set_u8 m a (Int64.to_int v)
  | 2 -> Ram.set_u16 m a (Int64.to_int v)
  | 4 -> Ram.set_u32 m a (Int64.to_int32 v)
  | _ -> Ram.set_u64 m a v

type ram_op =
  | Get of int * int  (** width, address *)
  | Set of int * int * int64
  | Get_f64 of int
  | Set_f64 of int * float
  | Blit of int * string
  | Read of int * int
  | Extent of int * int

let show_ram_op = function
  | Get (w, a) -> Printf.sprintf "get%d %#x" w a
  | Set (w, a, v) -> Printf.sprintf "set%d %#x %Lx" w a v
  | Get_f64 a -> Printf.sprintf "get_f64 %#x" a
  | Set_f64 (a, v) -> Printf.sprintf "set_f64 %#x %h" a v
  | Blit (a, s) -> Printf.sprintf "blit %#x (%d bytes)" a (String.length s)
  | Read (a, n) -> Printf.sprintf "read %#x %d" a n
  | Extent (lo, hi) -> Printf.sprintf "extent %#x..%#x" lo hi

let diff_size = (5 * Ram.page_size) + 24

let gen_ram_ops : (Endian.order * ram_op list) QCheck.arbitrary =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (5, map2 (fun pg d -> (pg * Ram.page_size) + d) (int_bound 5) (int_range (-9) 9));
        (2, int_range (diff_size - 12) (diff_size + 4));
        (1, int_range (-6) 3);
        (2, int_bound (diff_size - 1)) ]
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  let bytes n = string_size ~gen:(frequency [ (1, return '\000'); (3, char) ]) n in
  let op =
    frequency
      [ (4, map2 (fun w a -> Get (w, a)) width addr);
        (4, map3 (fun w a v -> Set (w, a, v)) width addr ui64);
        (1, map (fun a -> Get_f64 a) addr);
        (1, map2 (fun a v -> Set_f64 (a, v)) addr float);
        (2, map2 (fun a s -> Blit (a, s))
              addr (bytes (frequency [ (4, int_bound 20); (1, int_range 4000 9000) ])));
        (2, map2 (fun a n -> Read (a, n)) addr (frequency [ (4, int_bound 20); (1, int_bound 9000) ]));
        (1, map2 (fun a n -> Extent (a, a + n)) addr (int_bound 9000)) ]
  in
  QCheck.make
    ~print:(fun (o, ops) ->
      Printf.sprintf "%s: %s" (Fmt.to_to_string Endian.pp_order o)
        (String.concat "; " (List.map show_ram_op ops)))
    (pair (oneofl [ Endian.Big; Endian.Little ]) (list_size (int_range 1 60) op))

let prop_ram_matches_flat =
  Testkit.qtest "paged RAM = flat reference" ~count:300 gen_ram_ops (fun (order, ops) ->
      let ram = Ram.create ~size:diff_size order in
      let flat = { Flat.b = Bytes.make diff_size '\000'; order } in
      let run f = match f () with v -> Ok v | exception Ram.Fault a -> Error a in
      let same f g = run f = run g in
      List.for_all
        (fun op ->
          match op with
          | Get (w, a) -> same (fun () -> ram_get ram w a) (fun () -> Flat.get flat w a)
          | Set (w, a, v) -> same (fun () -> ram_set ram w a v) (fun () -> Flat.set flat w a v)
          | Get_f64 a ->
              same
                (fun () -> Int64.bits_of_float (Ram.get_f64 ram a))
                (fun () -> Flat.get flat 8 a)
          | Set_f64 (a, v) ->
              same (fun () -> Ram.set_f64 ram a v)
                (fun () -> Flat.set flat 8 a (Int64.bits_of_float v))
          | Blit (a, s) -> same (fun () -> Ram.blit_in ram ~addr:a s) (fun () -> Flat.blit_in flat a s)
          | Read (a, n) -> same (fun () -> Ram.read_string ram ~addr:a ~len:n) (fun () -> Flat.read flat a n)
          | Extent (lo, hi) ->
              same (fun () -> Ram.nonzero_extent ram ~lo ~hi) (fun () -> Flat.extent flat lo hi))
        ops
      && Ram.read_string ram ~addr:0 ~len:diff_size = Bytes.to_string flat.Flat.b)

(* --- float80 ------------------------------------------------------------------ *)

let test_float80_exact () =
  List.iter
    (fun x ->
      let b = Float80.to_bytes x in
      check Alcotest.int "10 bytes" 10 (String.length b);
      check (Alcotest.float 0.0) "exact roundtrip" x (Float80.of_bytes b))
    [ 0.0; 1.0; -1.0; 3.141592653589793; 1e300; -1e-300; 0.1 ]

let test_float80_specials () =
  check Alcotest.bool "inf" true (Float80.of_bytes (Float80.to_bytes infinity) = infinity);
  check Alcotest.bool "-inf" true
    (Float80.of_bytes (Float80.to_bytes neg_infinity) = neg_infinity);
  check Alcotest.bool "nan" true (Float.is_nan (Float80.of_bytes (Float80.to_bytes nan)))

let prop_float80_roundtrip =
  Testkit.qtest "float80 roundtrip" ~count:500 QCheck.float (fun x ->
      let y = Float80.of_bytes (Float80.to_bytes x) in
      (Float.is_nan x && Float.is_nan y) || x = y)

(* --- cpu semantics -------------------------------------------------------------- *)

(** Assemble a list of instructions at the code base and run until
    Break/exit, returning the CPU. *)
let run_insns arch insns =
  let target = Target.of_arch arch in
  let proc = Proc.create target in
  let buf = Buffer.create 64 in
  List.iter (fun i -> Buffer.add_string buf (Target.encode target i)) insns;
  Ram.blit_in proc.Proc.ram ~addr:Ram.Layout.code_base (Buffer.contents buf);
  Proc.set_pc proc Ram.Layout.code_base;
  ignore (Proc.run ~fuel:10000 proc);
  proc

let test_alu_all_archs () =
  List.iter
    (fun arch ->
      let proc =
        run_insns arch
          [ Insn.Li (1, 20l); Insn.Li (2, 22l); Insn.Alu (Insn.Add, 3, 1, 2);
            Insn.Alui (Insn.Mul, 3, 3, 10l); Insn.Break ]
      in
      check Alcotest.int32 (Arch.name arch ^ " alu") 420l (Cpu.reg proc.Proc.cpu 3))
    Arch.all

let test_load_store_endian_insulated () =
  (* identical code on BE and LE targets computes identical results *)
  List.iter
    (fun arch ->
      let base = Int32.of_int Ram.Layout.data_base in
      let proc =
        run_insns arch
          [ Insn.Li (1, base); Insn.Li (2, 0x11223344l); Insn.Store (Insn.S32, 2, 1, 0l);
            Insn.Load (Insn.S8, 3, 1, 0l); Insn.Nop; Insn.Break ]
      in
      (* the byte at offset 0 differs by endianness: that is real machine
         behaviour, visible to machine code *)
      let expected = if Arch.endian arch = Big then 0x11l else 0x44l in
      check Alcotest.int32 (Arch.name arch ^ " ls byte") expected (Cpu.reg proc.Proc.cpu 3))
    Arch.all

let test_div_by_zero_faults () =
  List.iter
    (fun arch ->
      let proc = run_insns arch [ Insn.Li (1, 5l); Insn.Li (2, 0l); Insn.Alu (Insn.Div, 3, 1, 2) ] in
      match proc.Proc.status with
      | Proc.Stopped (SIGFPE, _) -> ()
      | st ->
          Alcotest.failf "%s: expected SIGFPE, got %s" (Arch.name arch)
            (match st with
            | Proc.Stopped (s, _) -> Signal.name s
            | Proc.Exited n -> Printf.sprintf "exit %d" n
            | Proc.Running -> "running"))
    Arch.all

let test_bad_fetch_faults () =
  List.iter
    (fun arch ->
      let proc = run_insns arch [ Insn.Li (1, 0x7fffff00l); Insn.Jr 1 ] in
      match proc.Proc.status with
      | Proc.Stopped (SIGSEGV, _) -> ()
      | _ -> Alcotest.failf "%s: expected SIGSEGV" (Arch.name arch))
    Arch.all

let test_mips_load_delay () =
  (* the instruction after a load sees the OLD register value *)
  let base = Int32.of_int Ram.Layout.data_base in
  let proc =
    run_insns Mips
      [ Insn.Li (1, base); Insn.Li (2, 777l); Insn.Store (Insn.S32, 2, 1, 0l);
        Insn.Li (3, 111l);
        Insn.Load (Insn.S32, 3, 1, 0l);  (* r3 <- 777, delayed *)
        Insn.Mov (4, 3);                 (* delay slot: sees 111 *)
        Insn.Mov (5, 3);                 (* after: sees 777 *)
        Insn.Break ]
  in
  check Alcotest.int32 "delay slot sees old value" 111l (Cpu.reg proc.Proc.cpu 4);
  check Alcotest.int32 "next insn sees new value" 777l (Cpu.reg proc.Proc.cpu 5)

let test_no_delay_on_others () =
  List.iter
    (fun arch ->
      let base = Int32.of_int Ram.Layout.data_base in
      let proc =
        run_insns arch
          [ Insn.Li (1, base); Insn.Li (2, 777l); Insn.Store (Insn.S32, 2, 1, 0l);
            Insn.Li (3, 111l); Insn.Load (Insn.S32, 3, 1, 0l); Insn.Mov (4, 3); Insn.Break ]
      in
      check Alcotest.int32 (Arch.name arch ^ " no delay") 777l (Cpu.reg proc.Proc.cpu 4))
    [ Sparc; M68k; Vax ]

let test_call_ret_conventions () =
  (* mips/sparc link in a register; m68k/vax push the return address *)
  List.iter
    (fun arch ->
      let target = Target.of_arch arch in
      let cb = Ram.Layout.code_base in
      (* layout: [entry: call f; break] [f: li r1 99; ret] *)
      let call_len = Target.insn_length target (Insn.Call 0l) in
      let brk_len = Target.insn_length target Insn.Break in
      let f_addr = cb + call_len + brk_len in
      let proc =
        run_insns arch
          [ Insn.Call (Int32.of_int f_addr); Insn.Break; Insn.Li (1, 99l); Insn.Ret ]
      in
      check Alcotest.int32 (Arch.name arch ^ " call/ret") 99l (Cpu.reg proc.Proc.cpu 1);
      (* stopped at the Break after the call *)
      check Alcotest.int (Arch.name arch ^ " return pc") (cb + call_len) (Proc.pc proc))
    Arch.all

(* --- processes and the kernel ------------------------------------------------- *)

let test_printf_syscall () =
  List.iter
    (fun arch ->
      let target = Target.of_arch arch in
      let proc = Proc.create target in
      let fmt_addr = Ram.Layout.data_base in
      Ram.blit_in proc.Proc.ram ~addr:fmt_addr "x=%d y=%s f=%g!\000";
      Ram.blit_in proc.Proc.ram ~addr:(fmt_addr + 64) "str\000";
      let sys = Ram.Layout.sysarg_base in
      Ram.set_u32 proc.Proc.ram sys (Int32.of_int fmt_addr);
      Ram.set_u32 proc.Proc.ram (sys + 4) 42l;
      Ram.set_u32 proc.Proc.ram (sys + 8) (Int32.of_int (fmt_addr + 64));
      Ram.set_f64 proc.Proc.ram (sys + 12) 2.5;
      Proc.do_syscall proc Proc.Sys_abi.printf;
      check Alcotest.string (Arch.name arch ^ " printf") "x=42 y=str f=2.5!" (Proc.output proc))
    Arch.all

let test_rpt_roundtrip () =
  let ram = Ram.create Big in
  let entries =
    [ { Rpt.addr = 0x1000; frame_size = 32; ra_offset = 28 };
      { Rpt.addr = 0x1100; frame_size = 64; ra_offset = 60 } ]
  in
  Rpt.write ram entries;
  let back = Rpt.read (fun a -> Ram.get_u32 ram a) in
  check Alcotest.int "count" 2 (List.length back);
  check Alcotest.bool "same" true (back = entries);
  match Rpt.find back ~pc:0x1104 with
  | Some e -> check Alcotest.int "find" 0x1100 e.Rpt.addr
  | None -> Alcotest.fail "find failed"

(* --- register fields beyond the register file --------------------------------- *)

let test_bad_register_refused () =
  List.iter
    (fun arch ->
      let target = Target.of_arch arch in
      let bytes = Target.encode target (Testkit.bad_register_insn arch) in
      (match Target.decode target ~fetch:(fun i -> Char.code bytes.[i]) 0 with
      | exception Optab.Bad_encoding _ -> ()
      | i, _ -> Alcotest.failf "%s decoded %s" (Arch.name arch) (Insn.to_string i));
      let proc = run_insns arch [ Testkit.bad_register_insn arch ] in
      match proc.Proc.status with
      | Proc.Stopped (SIGILL, pc) ->
          check Alcotest.int (Arch.name arch ^ " SIGILL at the instruction") Ram.Layout.code_base pc
      | _ -> Alcotest.failf "%s: expected SIGILL" (Arch.name arch))
    Arch.all

(* --- the predecode table against a reference stepper ------------------------ *)

(* The predecode table's byte check covers [Cpu.max_insn_bytes]; an
   encoding any wider must fail here rather than be cached wrongly. *)
let test_every_shape_fits () =
  List.iter
    (fun arch ->
      List.iter
        (fun s ->
          let insn = Optab.build arch s ~a:0 ~b:0 ~c:0 ~imm:0l in
          let n = String.length (Target.encode (Target.of_arch arch) insn) in
          if n > Cpu.max_insn_bytes then
            Alcotest.failf "%s %s is %d bytes" (Arch.name arch) (Insn.to_string insn) n)
        Optab.all_shapes)
    Arch.all

(* The reference: decode afresh with [Target.decode] at every step, then
   run the shared semantics. *)
let ref_step (p : Proc.t) =
  let cpu = p.Proc.cpu and pc = p.Proc.cpu.Cpu.pc in
  let ev =
    match Target.decode cpu.Cpu.target ~fetch:(Ram.get_u8 p.Proc.ram) pc with
    | exception Ram.Fault _ -> Cpu.Trap (SIGSEGV, pc)
    | exception Optab.Bad_encoding _ -> Cpu.Trap (SIGILL, pc)
    | insn, len -> Cpu.exec cpu p.Proc.ram insn len
  in
  match (p.Proc.status, ev) with
  | Proc.Running, Cpu.Running -> ()
  | Proc.Running, Cpu.Sys n -> Proc.do_syscall p n
  | Proc.Running, Cpu.Trap (s, code) -> p.Proc.status <- Proc.Stopped (s, code)
  | (Proc.Stopped _ | Proc.Exited _), _ -> assert false

let running (p : Proc.t) = p.Proc.status = Proc.Running

let same_state (a : Proc.t) (b : Proc.t) =
  let ca = a.Proc.cpu and cb = b.Proc.cpu in
  ca.Cpu.regs = cb.Cpu.regs
  && Array.map Int64.bits_of_float ca.Cpu.fregs = Array.map Int64.bits_of_float cb.Cpu.fregs
  && ca.Cpu.pc = cb.Cpu.pc
  && a.Proc.status = b.Proc.status
  && ca.Cpu.icount = cb.Cpu.icount
  && Proc.output a = Proc.output b

(* Step [cached] with [Proc.step] and [reference] with [ref_step] while
   they run, at most [fuel] steps, comparing them after every step;
   [after i] may then change both alike. *)
let lockstep ?(fuel = 100_000) ?(after = fun _ -> ()) what (cached : Proc.t) (reference : Proc.t) =
  let rec go i =
    if i < fuel && running cached then begin
      Proc.step cached;
      ref_step reference;
      if not (same_state cached reference) then
        Alcotest.failf "%s: step %d differs (pc %#x, reference pc %#x)" what i
          cached.Proc.cpu.Cpu.pc reference.Proc.cpu.Cpu.pc;
      after i;
      go (i + 1)
    end
  in
  go 0

(* Two processes loaded from one image, or from one code string at [at]. *)
let twins_of_image img = (Ldb_link.Link.load img, Ldb_link.Link.load img)

let twins_of_code arch ~at code =
  let mk () =
    let p = Proc.create (Target.of_arch arch) in
    Ram.blit_in p.Proc.ram ~addr:at code;
    Proc.set_pc p at;
    p
  in
  (mk (), mk ())

let assemble arch insns = String.concat "" (List.map (Target.encode (Target.of_arch arch)) insns)
let span arch insns = List.fold_left (fun n i -> n + Target.insn_length (Target.of_arch arch) i) 0 insns

let prop_cached_matches_reference =
  Testkit.qtest "random programs: cached steps = reference steps" ~count:20 Randprog.arb_program
    (fun src ->
      List.iter
        (fun arch ->
          let img, _ = Ldb_link.Driver.build ~arch [ ("rand.c", src) ] in
          let cached, reference = twins_of_image img in
          lockstep ~fuel:5_000_000 (Arch.name arch) cached reference)
        Arch.all;
      true)

let loop_c = {|
int main(void)
{
    int i;
    int s;
    s = 0;
    for (i = 0; i < 40; i++)
        s = s + i * 3;
    printf("%d\n", s);
    return 0;
}
|}

(* The addresses of the stopping-point no-ops in [p]'s code. *)
let nop_addresses (p : Proc.t) (img : Ldb_link.Link.image) =
  let t = p.Proc.target in
  let code_end = Ram.Layout.code_base + String.length img.Ldb_link.Link.i_code in
  let rec walk a acc =
    if a >= code_end then List.rev acc
    else
      match Target.decode t ~fetch:(Ram.get_u8 p.Proc.ram) a with
      | Insn.Nop, n -> walk (a + n) (a :: acc)
      | _, n -> walk (a + n) acc
      | exception Optab.Bad_encoding _ -> walk (a + t.Target.insn_unit) acc
  in
  Array.of_list (walk Ram.Layout.code_base [])

(* Breakpoints planted and cleared while the loop runs, in both
   processes alike; a trap clears its breakpoint and resumes. *)
let test_breakpoints_mid_loop () =
  List.iter
    (fun arch ->
      let t = Target.of_arch arch in
      let img, _ = Ldb_link.Driver.build ~arch [ ("loop.c", loop_c) ] in
      let cached, reference = twins_of_image img in
      let nops = nop_addresses cached img in
      let planted = Hashtbl.create 8 and traps = ref 0 in
      let write a bytes = List.iter (fun p -> Ram.blit_in p.Proc.ram ~addr:a bytes) [ cached; reference ] in
      let after i =
        (match cached.Proc.status with
        | Proc.Stopped (SIGTRAP, pc) ->
            incr traps;
            write pc t.Target.nop;
            Hashtbl.remove planted pc;
            List.iter Proc.set_running [ cached; reference ]
        | _ -> ());
        if i mod 5 = 0 then begin
          let a = nops.(i / 5 mod Array.length nops) in
          if Hashtbl.mem planted a then (write a t.Target.nop; Hashtbl.remove planted a)
          else (write a t.Target.brk; Hashtbl.replace planted a ())
        end
      in
      lockstep ~after (Arch.name arch) cached reference;
      check Alcotest.bool (Arch.name arch ^ " breakpoints were hit") true (!traps > 0);
      check Alcotest.string (Arch.name arch ^ " output") "2340\n" (Proc.output cached))
    Arch.all

(* Counts r3 from 1 to 3.  Each pass stores r3 into the immediate of X,
   the instruction right after the store, and X adds its immediate to
   r4: r4 ends at 1 + 2 + 3 = 6 only if every pass runs the X it just
   wrote.  X starts at [x_at]; the code starts where it returns. *)
let self_modifying arch ~x_at =
  let x = Insn.Alui (Add, 4, 4, 0l) in
  let imm_at = x_at + span arch [ x ] - 4 in
  let body = [ Insn.Alui (Add, 3, 3, 1l); Insn.Store (S32, 3, 1, 0l) ] in
  let loop = x_at - span arch body in
  let pre = [ Insn.Li (3, 0l); Insn.Li (4, 0l); Insn.Li (5, 3l); Insn.Li (1, Int32.of_int imm_at) ] in
  let post = [ Insn.Br (Lt, 3, 5, Int32.of_int loop); Insn.Break ] in
  (loop - span arch pre, assemble arch (pre @ body @ (x :: post)))

let test_self_modifying ~x_at () =
  List.iter
    (fun arch ->
      let at, code = self_modifying arch ~x_at in
      let cached, reference = twins_of_code arch ~at code in
      lockstep (Arch.name arch) cached reference;
      check Alcotest.int32 (Arch.name arch ^ " r4") 6l (Cpu.reg cached.Proc.cpu 4);
      match cached.Proc.status with
      | Proc.Stopped (SIGTRAP, _) -> ()
      | _ -> Alcotest.failf "%s: did not reach the break" (Arch.name arch))
    Arch.all

(* No-ops up to the last four bytes of memory, then the first four bytes
   of an instruction that needs more: both steppers fault there, and the
   no-ops within eight bytes of the top run without being cached. *)
let test_top_of_memory () =
  List.iter
    (fun arch ->
      let t = Target.of_arch arch in
      let top = Ram.Layout.size in
      let nops = String.concat "" (List.init (12 / String.length t.Target.nop) (fun _ -> t.Target.nop)) in
      let code = nops ^ String.sub (Target.encode t (Insn.Li (1, 0x12345678l))) 0 4 in
      for _ = 1 to 2 do
        let cached, reference = twins_of_code arch ~at:(top - 16) code in
        lockstep (Arch.name arch) cached reference;
        match cached.Proc.status with
        | Proc.Stopped (SIGSEGV, _) -> check Alcotest.int (Arch.name arch ^ " faulting pc") (top - 4) (Proc.pc cached)
        | _ -> Alcotest.failf "%s: expected SIGSEGV" (Arch.name arch)
      done)
    Arch.all

(* Two processes of one target, different code at the same pc, stepped
   alternately: they share the target's table. *)
let test_shared_table () =
  List.iter
    (fun arch ->
      let at = Ram.Layout.code_base in
      let a_code = assemble arch [ Insn.Li (1, 1l); Insn.Alui (Add, 1, 1, 10l); Insn.Alui (Add, 1, 1, 10l); Insn.Break ]
      and b_code = assemble arch [ Insn.Li (1, 100l); Insn.Alui (Mul, 1, 1, 3l); Insn.Alui (Sub, 1, 1, 7l); Insn.Break ] in
      let a, a_ref = twins_of_code arch ~at a_code and b, b_ref = twins_of_code arch ~at b_code in
      for _ = 1 to 4 do
        lockstep ~fuel:1 (Arch.name arch ^ " a") a a_ref;
        lockstep ~fuel:1 (Arch.name arch ^ " b") b b_ref
      done;
      check Alcotest.int32 (Arch.name arch ^ " a's r1") 21l (Cpu.reg a.Proc.cpu 1);
      check Alcotest.int32 (Arch.name arch ^ " b's r1") 293l (Cpu.reg b.Proc.cpu 1))
    Arch.all

(* Two blocks [Cpu.slots] instruction units apart, so both map to one
   slot, run in turn ten times. *)
let test_slot_collision () =
  List.iter
    (fun arch ->
      let p = Ram.Layout.code_base in
      let q = p + (Cpu.slots * (Target.of_arch arch).Target.insn_unit) in
      let block_p = assemble arch [ Insn.Alui (Add, 1, 1, 1l); Insn.Jmp (Int32.of_int q) ]
      and block_q =
        assemble arch [ Insn.Alui (Add, 2, 2, 2l); Insn.Br (Lt, 1, 5, Int32.of_int p); Insn.Break ]
      in
      let cached, reference = twins_of_code arch ~at:p block_p in
      List.iter
        (fun pr ->
          Ram.blit_in pr.Proc.ram ~addr:q block_q;
          Cpu.set_reg pr.Proc.cpu 5 10l)
        [ cached; reference ];
      lockstep (Arch.name arch) cached reference;
      check Alcotest.int32 (Arch.name arch ^ " r2") 20l (Cpu.reg cached.Proc.cpu 2))
    Arch.all

(* Random bytes as code: the cached stepper agrees with the reference
   and never raises, whatever the decoders make of them. *)
let prop_random_code =
  let open QCheck.Gen in
  Testkit.qtest "random code bytes: cached steps = reference steps" ~count:500
    (QCheck.make (pair (oneofl Arch.all) (string_size ~gen:char (return 24)))
       ~print:(fun (a, s) -> Arch.name a ^ " " ^ String.escaped s))
    (fun (arch, code) ->
      let cached, reference = twins_of_code arch ~at:Ram.Layout.code_base code in
      lockstep ~fuel:12 (Arch.name arch) cached reference;
      true)

let () =
  Alcotest.run "machine"
    [
      ( "encoders",
        List.map roundtrip_prop Arch.all
        @ List.map roundtrip_any_alignment_prop Arch.all
        @ [
            Alcotest.test_case "instruction widths differ" `Quick test_lengths_differ;
            Alcotest.test_case "real trap/no-op bit patterns" `Quick test_real_bit_patterns;
            Alcotest.test_case "nop/brk same length" `Quick test_nop_brk_same_length;
            Alcotest.test_case "stop encodings derived from encoder" `Quick
              test_stop_encoding_derived;
            Alcotest.test_case "bad encodings rejected" `Quick test_bad_encoding_rejected;
          ] );
      ( "ram",
        [
          Alcotest.test_case "endianness" `Quick test_ram_endianness;
          Alcotest.test_case "faults" `Quick test_ram_fault;
          Alcotest.test_case "cstring" `Quick test_ram_cstring;
          Alcotest.test_case "floats" `Quick test_ram_floats;
          prop_ram_matches_flat;
        ] );
      ( "float80",
        [
          Alcotest.test_case "exact roundtrip" `Quick test_float80_exact;
          Alcotest.test_case "specials" `Quick test_float80_specials;
          prop_float80_roundtrip;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "alu on all targets" `Quick test_alu_all_archs;
          Alcotest.test_case "load/store endianness" `Quick test_load_store_endian_insulated;
          Alcotest.test_case "divide by zero faults" `Quick test_div_by_zero_faults;
          Alcotest.test_case "bad fetch faults" `Quick test_bad_fetch_faults;
          Alcotest.test_case "mips load delay slot" `Quick test_mips_load_delay;
          Alcotest.test_case "no delay elsewhere" `Quick test_no_delay_on_others;
          Alcotest.test_case "call/ret conventions" `Quick test_call_ret_conventions;
          Alcotest.test_case "register fields beyond the file: SIGILL" `Quick
            test_bad_register_refused;
        ] );
      ( "predecode",
        [
          Alcotest.test_case "every shape fits the byte check" `Quick test_every_shape_fits;
          prop_cached_matches_reference;
          Alcotest.test_case "breakpoints planted and cleared mid-loop" `Quick
            test_breakpoints_mid_loop;
          Alcotest.test_case "store into the next instruction" `Quick
            (test_self_modifying ~x_at:0x1800);
          Alcotest.test_case "instruction across a page boundary" `Quick
            (test_self_modifying ~x_at:(0x2000 - 4));
          Alcotest.test_case "pc at the top of memory" `Quick test_top_of_memory;
          Alcotest.test_case "two processes, one table" `Quick test_shared_table;
          Alcotest.test_case "two pcs, one slot" `Quick test_slot_collision;
          prop_random_code;
        ] );
      ( "proc",
        [
          Alcotest.test_case "printf syscall" `Quick test_printf_syscall;
          Alcotest.test_case "runtime procedure table" `Quick test_rpt_roundtrip;
        ] );
    ]
