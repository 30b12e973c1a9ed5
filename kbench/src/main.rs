fn main() {
    std::process::exit(kbench::cli::main(std::env::args().skip(1).collect()));
}
