//! Pseudodecimal Encoding in action: decompose doubles into (digits,
//! exponent) pairs and compare against the published float codecs (FPC,
//! Gorilla, Chimp, Chimp128) on price-like and sensor-like data.
//!
//! Run with: `cargo run --release --example floating_point`

use btrblocks_repro::btrblocks::scheme::double::decimal;
use btrblocks_repro::btrblocks::scheme::{compress_with_into, decompress_into};
use btrblocks_repro::btrblocks::writer::Reader;
use btrblocks_repro::btrblocks::{Config, DecodeScratch, EncodeScratch, SchemeCode};
use btrblocks_repro::float::FloatCodec;

fn main() {
    // --- Part 1: the decomposition itself -------------------------------
    println!("Pseudodecimal decomposition (value -> digits x 10^-exp):");
    for v in [3.25, 0.99, -6.425, 1234.0, 0.000_5, -0.0, 5.5e-42, f64::NAN] {
        match decimal::encode_single(v) {
            Some((digits, exp)) => {
                let back = decimal::decode_single(digits, exp);
                assert_eq!(back.to_bits(), v.to_bits(), "bitwise identity");
                println!("  {v:>12} -> ({digits}, {exp})");
            }
            None => println!("  {v:>12} -> patch (stored as raw bits)"),
        }
    }

    // --- Part 2: whole-column comparison --------------------------------
    let prices: Vec<f64> = (0..100_000).map(|i| ((i * 7919) % 100_000) as f64 * 0.01).collect();
    let sensors: Vec<f64> = (0..100_000)
        .map(|i| (i as f64 * 0.001).sin() * 123.456789)
        .collect();

    for (name, values) in [("prices (2 decimals)", &prices), ("sensor readings (full precision)", &sensors)] {
        println!("\n{name}: {} doubles, {} KB raw", values.len(), values.len() * 8 / 1024);
        let raw = values.len() * 8;
        for codec in FloatCodec::ALL {
            let size = codec.compress(values).len();
            println!("  {:<10} {:>6.2}x", codec.name(), raw as f64 / size as f64);
        }
        // PDE in its fixed two-level cascade (always FastBP128 on outputs).
        let cfg = Config::default().with_pool(&[SchemeCode::Pseudodecimal, SchemeCode::FastBp128]);
        let (mut scratch, mut buf) = (EncodeScratch::new(), Vec::new());
        compress_with_into(SchemeCode::Pseudodecimal, values, 2, &cfg, &mut scratch, &mut buf);
        println!("  {:<10} {:>6.2}x", "PDE", raw as f64 / buf.len() as f64);
        // And verify bitwise losslessness.
        let mut out: Vec<f64> = Vec::new();
        decompress_into(&mut Reader::new(&buf), &cfg, &mut DecodeScratch::new(), &mut out)
            .expect("decompress");
        assert!(values.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
    println!("\nall round-trips bitwise verified");
}
