fn main() {
    shapes::used_by_bench();
}
